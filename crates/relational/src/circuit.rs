//! DBSP-style operator circuits: the engine behind
//! [`MaterializedView`](crate::MaterializedView).
//!
//! A view's [`Plan`] compiles into a flat list of stateful operator nodes in
//! topological order; every node consumes and produces [`CountedSet`]
//! deltas, and applying a world delta is one bottom-up sweep costing Θ(|Δ|)
//! plus join fan-out. A node whose subtree reads none of the batch's
//! relations returns an empty delta without touching its state, and a
//! base-relation input hands the batch's own per-relation set through
//! borrowed, so selections and projections read Δ without copying it.
//!
//! Beyond the non-recursive algebra the circuit supports *recursion*: a
//! [`Plan::Fixpoint`] compiles to a fixpoint node holding two nested
//! sub-circuits (the non-recursive base term and the recursive step term,
//! with [`Plan::Rec`] leaves compiled to a recursive-input port). Under set
//! semantics (`UNION`) the node maintains *derivation counts* for every
//! derived tuple and propagates deltas semi-naively: a positive world delta
//! on a monotone recursive term triggers only the delta iteration — new
//! edges derive new closure tuples, each iteration feeding exactly the
//! newly derived frontier back into the step circuit. Retractions and
//! non-monotone terms fall back to recompute-and-diff over maintained
//! relation copies (cyclic derivation support makes counting-based deletion
//! unsound). Bag semantics (`UNION ALL`) always recompute via working-table
//! iteration. Every iteration loop is bounded by the fixpoint's cap; hitting
//! it is a typed [`CircuitError::IterationLimit`], never divergence.
//!
//! An inconsistent delta stream (retracting a tuple that was never
//! inserted) surfaces as [`CircuitError::InconsistentDelta`] from
//! `distinct`/`aggregate` state instead of silently going negative. A view
//! that has returned an error may hold partially updated state and should
//! be rebuilt.
//!
//! # Example: transitive closure, maintained incrementally
//!
//! ```
//! use fgdb_relational::{tuple, Database, DeltaSet, MaterializedView, Plan, Schema, ValueType};
//! use std::sync::Arc;
//!
//! let mut db = Database::new();
//! let schema = Schema::from_pairs(&[("src", ValueType::Int), ("dst", ValueType::Int)]).unwrap();
//! db.create_relation("LINK", schema).unwrap();
//! db.relation_mut("LINK").unwrap().insert(tuple![1i64, 2i64]).unwrap();
//! db.relation_mut("LINK").unwrap().insert(tuple![2i64, 3i64]).unwrap();
//!
//! // REACH = LINK ∪ π_{src,dst}(REACH ⋈_{dst=src} LINK)
//! let step = Plan::rec("REACH", &["a", "b"])
//!     .join_on(Plan::scan("LINK"), &[("b", "src")])
//!     .project(&["a", "dst"]);
//! let plan = Plan::scan("LINK").fixpoint(step, "REACH", &["a", "b"]);
//!
//! let mut view = MaterializedView::new(&plan, &db).unwrap();
//! assert_eq!(view.result().total(), 3); // 1→2, 2→3, 1→3
//!
//! // A new edge 3→4 extends every chain that reaches 3.
//! let rel: Arc<str> = Arc::from("LINK");
//! let mut delta = DeltaSet::new();
//! delta.record_insert(&rel, tuple![3i64, 4i64]);
//! let out = view.try_apply_delta(&delta).unwrap();
//! assert_eq!(out.total(), 3); // 3→4, 2→4, 1→4
//! assert_eq!(view.result().total(), 6);
//! ```

use crate::algebra::{Plan, PlanError};
use crate::counted::{CountedSet, NegativeWeight};
use crate::database::Database;
use crate::delta::DeltaSet;
use crate::exec::{bind_aggs, join_key_indices, AggAcc, AggSpec, ExecError};
use crate::expr::{resolve_column, BoundExpr};
use crate::fasthash::TupleMap;
use crate::tuple::{fingerprint_values, Tuple};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Typed error surface of view compilation and maintenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CircuitError {
    /// Plan validation/binding failure (shared with the executor).
    Exec(ExecError),
    /// A fixpoint iteration loop exceeded its configured cap — divergent
    /// recursion (e.g. `UNION ALL` closure over a cyclic graph).
    IterationLimit {
        /// The configured iteration cap that was exceeded.
        cap: usize,
    },
    /// The recursive term references the recursive relation more than once
    /// (e.g. a self-join of the recursion). Only linear recursion is
    /// supported.
    NonLinearRecursion {
        /// The recursive relation's name.
        name: String,
    },
    /// A fixpoint appears inside another fixpoint's base or step term.
    NestedRecursion {
        /// The inner fixpoint's recursive name.
        name: String,
    },
    /// A [`Plan::Rec`] leaf appeared outside a fixpoint binding its name
    /// (including inside the base term, which must be non-recursive).
    UnboundRecursion {
        /// The unbound recursive name.
        name: String,
    },
    /// The recursive relation's name collides with a stored relation.
    ShadowedRelation {
        /// The colliding name.
        name: String,
    },
    /// A delta stream retracted more than it inserted: stateful operator
    /// state (distinct support, aggregate group multiplicity) would have
    /// gone negative. The circuit's state is no longer trustworthy.
    InconsistentDelta(NegativeWeight),
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::Exec(e) => write!(f, "{e}"),
            CircuitError::IterationLimit { cap } => {
                write!(f, "recursive query exceeded the iteration cap ({cap})")
            }
            CircuitError::NonLinearRecursion { name } => write!(
                f,
                "non-linear recursion: `{name}` is referenced more than once in the recursive term"
            ),
            CircuitError::NestedRecursion { name } => {
                write!(f, "nested recursion (`{name}`) is not supported")
            }
            CircuitError::UnboundRecursion { name } => {
                write!(f, "recursive reference `{name}` outside its fixpoint")
            }
            CircuitError::ShadowedRelation { name } => {
                write!(f, "recursive name `{name}` shadows a stored relation")
            }
            CircuitError::InconsistentDelta(nw) => {
                write!(f, "inconsistent delta stream: {nw}")
            }
        }
    }
}

impl std::error::Error for CircuitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CircuitError::Exec(e) => Some(e),
            CircuitError::InconsistentDelta(nw) => Some(nw),
            _ => None,
        }
    }
}

impl From<ExecError> for CircuitError {
    fn from(e: ExecError) -> Self {
        CircuitError::Exec(e)
    }
}

impl From<PlanError> for CircuitError {
    fn from(e: PlanError) -> Self {
        CircuitError::Exec(ExecError::Plan(e))
    }
}

impl From<NegativeWeight> for CircuitError {
    fn from(e: NegativeWeight) -> Self {
        CircuitError::InconsistentDelta(e)
    }
}

/// Work counters for view maintenance (the |Δ|-proportional analogue of
/// [`crate::exec::ExecStats`]), plus recursion counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CircuitStats {
    /// Delta batches applied.
    pub deltas_applied: u64,
    /// Base tuples read during initialization (one full evaluation).
    pub init_tuples_scanned: u64,
    /// Delta rows processed across all operator nodes during `apply_delta`
    /// (the |Δ|-proportional cost the paper's Eq. 6 argues for).
    pub delta_rows_processed: u64,
    /// Fixpoint iterations run (semi-naive frontier feeds and rebuild
    /// iterations alike).
    pub fixpoint_iterations: u64,
    /// Fixpoint rebuilds forced by retractions or non-monotone terms.
    pub fixpoint_recomputes: u64,
}

/// One delta batch flowing into a circuit sweep. Exactly one of `deltas`
/// (incremental maintenance) or `full` (initialization/rebuild: every source
/// relation's full contents fed as an insert-only delta from empty state) is
/// normally set; `rec` additionally binds the enclosing fixpoint's recursive
/// name to the current frontier when driving an inner step circuit.
struct BatchInput<'a> {
    deltas: Option<&'a DeltaSet>,
    full: Option<&'a BTreeMap<Arc<str>, CountedSet>>,
    rec: Option<(&'a str, &'a CountedSet)>,
}

/// A per-node output delta for one batch. `Borrowed` lets an input node
/// hand the batch's own set through without copying it; `Empty` is the
/// zero-allocation result of a short-circuited subtree.
enum DOut<'a> {
    Empty,
    Borrowed(&'a CountedSet),
    Owned(CountedSet),
}

impl<'a> BatchInput<'a> {
    fn relation(&self, name: &str) -> Option<DOut<'a>> {
        if let Some((rn, z)) = self.rec {
            if rn == name {
                return Some(DOut::Borrowed(z));
            }
        }
        if let Some(full) = self.full {
            return full.get(name).map(DOut::Borrowed);
        }
        if let Some(ds) = self.deltas {
            return ds.for_relation(name).map(DOut::Borrowed);
        }
        None
    }

    fn touches(&self, sources: &[Arc<str>]) -> bool {
        sources.iter().any(|r| self.relation(r).is_some())
    }
}

impl<'a> DOut<'a> {
    fn as_set(&self) -> Option<&CountedSet> {
        match self {
            DOut::Empty => None,
            DOut::Borrowed(s) => Some(s),
            DOut::Owned(s) => Some(s),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.as_set().into_iter().flat_map(CountedSet::iter)
    }

    fn count(&self, t: &Tuple) -> i64 {
        self.as_set().map_or(0, |s| s.count(t))
    }

    fn distinct_len(&self) -> usize {
        self.as_set().map_or(0, CountedSet::distinct_len)
    }

    fn into_owned(self) -> CountedSet {
        match self {
            DOut::Empty => CountedSet::new(),
            DOut::Borrowed(s) => s.clone(),
            DOut::Owned(s) => s,
        }
    }
}

/// A flat operator pipeline in topological order (children strictly before
/// parents; the last node is the root). The flat layout is what lets one
/// sweep drive the whole circuit with per-node outputs in a side vector —
/// no recursion, no tree walks.
pub(crate) struct Flow {
    nodes: Vec<CNode>,
}

/// A stateful circuit node plus the base relations (and recursive names)
/// its subtree reads, for delta short-circuiting.
struct CNode {
    kind: CKind,
    sources: Vec<Arc<str>>,
}

/// The operator kinds. Children are indices into the flow's node list.
enum CKind {
    /// Base-relation delta input.
    Input {
        relation: Arc<str>,
    },
    /// Recursive-input port: receives the enclosing fixpoint's frontier.
    RecInput {
        name: Arc<str>,
    },
    Select {
        child: usize,
        pred: BoundExpr,
    },
    Project {
        child: usize,
        indices: Vec<usize>,
    },
    Product {
        left: usize,
        right: usize,
        left_state: CountedSet,
        right_state: CountedSet,
    },
    Join {
        left: usize,
        right: usize,
        lk: Vec<usize>,
        rk: Vec<usize>,
        left_state: TupleMap<CountedSet>,
        right_state: TupleMap<CountedSet>,
        scratch: Vec<Value>,
    },
    Aggregate {
        child: usize,
        group_idx: Vec<usize>,
        specs: Vec<AggSpec>,
        groups: TupleMap<GroupState>,
        scratch: Vec<Value>,
        touched: TupleMap<Option<Tuple>>,
        row_buf: Vec<Value>,
    },
    Distinct {
        child: usize,
        state: CountedSet,
    },
    Union {
        left: usize,
        right: usize,
    },
    SetOp {
        left: usize,
        right: usize,
        kind: SetOpKind,
        left_state: CountedSet,
        right_state: CountedSet,
    },
    Fixpoint(Box<FixpointNode>),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SetOpKind {
    Difference,
    Intersect,
}

impl SetOpKind {
    /// Output multiplicity of a tuple given its input multiplicities.
    fn out_count(self, l: i64, r: i64) -> i64 {
        match self {
            SetOpKind::Difference => (l - r).max(0),
            SetOpKind::Intersect => l.min(r).max(0),
        }
    }
}

/// One γ group's running state.
struct GroupState {
    /// Total input multiplicity in the group (existence test: n > 0, except
    /// the global group which always exists).
    n: i64,
    accs: Vec<AggAcc>,
}

impl GroupState {
    fn new(specs: &[AggSpec]) -> Self {
        GroupState {
            n: 0,
            accs: specs.iter().map(AggAcc::new).collect(),
        }
    }

    /// Assembles the group's output row through a reusable buffer: one
    /// tuple allocation, no intermediate `Vec` per call.
    fn output(&self, key: &[Value], buf: &mut Vec<Value>) -> Tuple {
        buf.clear();
        buf.extend_from_slice(key);
        buf.extend(self.accs.iter().map(AggAcc::finish));
        Tuple::from_slice(buf)
    }
}

/// The μ node: two nested sub-circuits plus maintained copies of the source
/// relations (so retractions can recompute without touching the database).
struct FixpointNode {
    rec: Arc<str>,
    all: bool,
    cap: usize,
    /// True when base and step are aggregate- and difference-free, making
    /// positive deltas safe for semi-naive propagation.
    monotone: bool,
    sources: Vec<Arc<str>>,
    step_sources: Vec<Arc<str>>,
    base: Flow,
    step: Flow,
    /// Maintained full copies of every source relation this fixpoint reads.
    rels: BTreeMap<Arc<str>, CountedSet>,
    /// Set semantics: derivation counts per tuple (how many ways it is
    /// currently derivable). Bag semantics: mirror of `out`.
    derived: CountedSet,
    /// The node's current output snapshot.
    out: CountedSet,
}

#[inline]
fn bump(stats: &mut CircuitStats, on: bool, n: u64) {
    if on {
        stats.delta_rows_processed += n;
    }
}

/// Adds `(t, c)` into a keyed index, dropping key entries that empty out so
/// stale keys never accumulate.
fn insert_keyed(state: &mut TupleMap<CountedSet>, fp: u64, key: &[Value], t: &Tuple, c: i64) {
    let set = state.get_or_insert_with(fp, key, CountedSet::new);
    set.add(t.clone(), c);
    if set.is_empty() {
        state.remove(fp, key);
    }
}

fn merge_dout(state: &mut CountedSet, d: &DOut<'_>) {
    if let Some(s) = d.as_set() {
        state.merge(s);
    }
}

/// Folds a produced delta into the fixpoint's derivation counts, recording
/// newly derived tuples (weight 1) in `out`, `newly`, and `out_delta`.
/// Inflationary: once a tuple enters `out` it stays (matching the
/// executor's iterated-naive accumulation), so non-monotone steps converge
/// to the same answer as the oracle or hit the cap.
fn absorb(
    d: CountedSet,
    derived: &mut CountedSet,
    out: &mut CountedSet,
    newly: &mut CountedSet,
    out_delta: Option<&mut CountedSet>,
) {
    let mut delta = out_delta;
    for (t, w) in d.iter() {
        let new_w = derived.add(t.clone(), w);
        if new_w > 0 && !out.contains(t) {
            out.add(t.clone(), 1);
            newly.add(t.clone(), 1);
            if let Some(od) = delta.as_deref_mut() {
                od.add(t.clone(), 1);
            }
        }
    }
}

impl FixpointNode {
    /// One maintenance batch: update maintained relation copies, then either
    /// propagate semi-naively (set semantics, monotone term, insert-only
    /// delta) or recompute-and-diff.
    fn step_batch(
        &mut self,
        input: &BatchInput<'_>,
        stats: &mut CircuitStats,
        init: bool,
        count_work: bool,
    ) -> Result<CountedSet, CircuitError> {
        if init {
            self.rels.clear();
            if let Some(full) = input.full {
                for r in &self.sources {
                    if let Some(s) = full.get(r.as_ref()) {
                        self.rels.insert(Arc::clone(r), s.clone());
                    }
                }
            }
            self.rebuild(stats, count_work)?;
            return Ok(self.out.clone());
        }
        let mut positive_only = true;
        if let Some(ds) = input.deltas {
            for r in &self.sources {
                if let Some(d) = ds.for_relation(r) {
                    if d.iter().any(|(_, c)| c < 0) {
                        positive_only = false;
                    }
                    self.rels.entry(Arc::clone(r)).or_default().merge(d);
                }
            }
        }
        if !self.all && self.monotone && positive_only {
            self.increment(input, stats, count_work)
        } else {
            stats.fixpoint_recomputes += 1;
            let old = std::mem::take(&mut self.out);
            self.rebuild(stats, count_work)?;
            let mut diff = self.out.clone();
            diff.merge(&old.negated());
            Ok(diff)
        }
    }

    /// Full fixpoint evaluation over the maintained relation copies,
    /// resetting both sub-circuits and rebuilding `derived`/`out`.
    fn rebuild(&mut self, stats: &mut CircuitStats, count_work: bool) -> Result<(), CircuitError> {
        self.base.reset();
        self.step.reset();
        self.derived = CountedSet::new();
        self.out = CountedSet::new();
        let rels = &self.rels;
        let rec_name: &str = self.rec.as_ref();
        let cap = self.cap;
        let base = &mut self.base;
        let step = &mut self.step;
        let derived = &mut self.derived;
        let out = &mut self.out;

        let full_input = BatchInput {
            deltas: None,
            full: Some(rels),
            rec: None,
        };
        let d_base = base.run(&full_input, stats, true, count_work)?;

        if self.all {
            // Bag semantics (`UNION ALL`): working-table iteration. The
            // step circuit must see exactly the previous working table as
            // the recursive input, so each iteration feeds the *signed
            // difference* between consecutive working tables; the circuit's
            // own incrementality turns that into Δstep exactly.
            derived.merge(&d_base);
            out.merge(&d_base);
            let mut cur_step = CountedSet::new(); // = step(rels, working)
            let mut prev_working = CountedSet::new();
            let mut working = d_base;
            let mut first = true;
            let mut iters: usize = 0;
            while !working.is_empty() {
                iters += 1;
                if iters > cap {
                    return Err(CircuitError::IterationLimit { cap });
                }
                stats.fixpoint_iterations += 1;
                let mut rec_delta = working.clone();
                rec_delta.merge(&prev_working.negated());
                let inp = BatchInput {
                    deltas: None,
                    full: if first { Some(rels) } else { None },
                    rec: Some((rec_name, &rec_delta)),
                };
                let d_step = step.run(&inp, stats, first, count_work)?;
                cur_step.merge_owned(d_step);
                out.merge(&cur_step);
                prev_working = working;
                working = cur_step.clone();
                first = false;
            }
            *derived = out.clone();
        } else {
            // Set semantics (`UNION`): semi-naive over derivation counts.
            // Each iteration feeds only the newly derived frontier.
            let mut frontier = CountedSet::new();
            absorb(d_base, derived, out, &mut frontier, None);
            let mut first = true;
            let mut iters: usize = 0;
            loop {
                iters += 1;
                if iters > cap {
                    return Err(CircuitError::IterationLimit { cap });
                }
                stats.fixpoint_iterations += 1;
                let inp = BatchInput {
                    deltas: None,
                    full: if first { Some(rels) } else { None },
                    rec: Some((rec_name, &frontier)),
                };
                let d_step = step.run(&inp, stats, first, count_work)?;
                let mut next = CountedSet::new();
                absorb(d_step, derived, out, &mut next, None);
                if next.is_empty() {
                    break;
                }
                frontier = next;
                first = false;
            }
        }
        Ok(())
    }

    /// Semi-naive incremental maintenance for an insert-only delta on a
    /// monotone set-semantics fixpoint: propagate the world delta through
    /// base and step once, then iterate only the newly derived frontier.
    fn increment(
        &mut self,
        input: &BatchInput<'_>,
        stats: &mut CircuitStats,
        count_work: bool,
    ) -> Result<CountedSet, CircuitError> {
        let rec_name: &str = self.rec.as_ref();
        let cap = self.cap;
        let base = &mut self.base;
        let step = &mut self.step;
        let derived = &mut self.derived;
        let out = &mut self.out;

        let mut out_delta = CountedSet::new();
        let base_inp = BatchInput {
            deltas: input.deltas,
            full: None,
            rec: None,
        };
        let d_base = base.run(&base_inp, stats, false, count_work)?;
        let mut frontier = CountedSet::new();
        absorb(d_base, derived, out, &mut frontier, Some(&mut out_delta));

        let step_touched = input.deltas.is_some_and(|ds| {
            self.step_sources
                .iter()
                .any(|r| ds.for_relation(r).is_some())
        });
        if step_touched || !frontier.is_empty() {
            let mut first = true;
            let mut iters: usize = 0;
            loop {
                iters += 1;
                if iters > cap {
                    return Err(CircuitError::IterationLimit { cap });
                }
                stats.fixpoint_iterations += 1;
                let inp = BatchInput {
                    deltas: if first { input.deltas } else { None },
                    full: None,
                    rec: Some((rec_name, &frontier)),
                };
                let d_step = step.run(&inp, stats, false, count_work)?;
                let mut next = CountedSet::new();
                absorb(d_step, derived, out, &mut next, Some(&mut out_delta));
                if next.is_empty() {
                    break;
                }
                frontier = next;
                first = false;
            }
        }
        Ok(out_delta)
    }
}

impl CNode {
    /// Processes one batch, reading child outputs from `outs` (children are
    /// always earlier in the flow) and returning this node's output delta.
    fn step<'d>(
        &mut self,
        input: &BatchInput<'d>,
        outs: &[DOut<'d>],
        stats: &mut CircuitStats,
        init: bool,
        count_work: bool,
    ) -> Result<DOut<'d>, CircuitError> {
        if !input.touches(&self.sources) {
            return Ok(DOut::Empty);
        }
        Ok(match &mut self.kind {
            CKind::Input { relation } => match input.relation(relation) {
                Some(d) => {
                    bump(stats, count_work, d.distinct_len() as u64);
                    d
                }
                None => DOut::Empty,
            },
            CKind::RecInput { name } => match input.relation(name) {
                Some(d) => {
                    bump(stats, count_work, d.distinct_len() as u64);
                    d
                }
                None => DOut::Empty,
            },
            CKind::Select { child, pred } => {
                let d = &outs[*child];
                let mut out = CountedSet::new();
                for (t, c) in d.iter() {
                    bump(stats, count_work, 1);
                    if pred.matches(t) {
                        out.add(t.clone(), c);
                    }
                }
                DOut::Owned(out)
            }
            CKind::Project { child, indices } => {
                let d = &outs[*child];
                let mut out = CountedSet::with_capacity(d.distinct_len());
                for (t, c) in d.iter() {
                    bump(stats, count_work, 1);
                    out.add(t.project(indices), c);
                }
                DOut::Owned(out)
            }
            CKind::Product {
                left,
                right,
                left_state,
                right_state,
            } => {
                let dl = &outs[*left];
                let dr = &outs[*right];
                let mut out = CountedSet::new();
                // ΔL × R_old
                for (lt, lc) in dl.iter() {
                    for (rt, rc) in right_state.iter() {
                        bump(stats, count_work, 1);
                        out.add(lt.concat(rt), lc * rc);
                    }
                }
                merge_dout(left_state, dl); // left is now L_new
                                            // L_new × ΔR — supplies both L_old × ΔR and ΔL × ΔR.
                for (rt, rc) in dr.iter() {
                    for (lt, lc) in left_state.iter() {
                        bump(stats, count_work, 1);
                        out.add(lt.concat(rt), lc * rc);
                    }
                }
                merge_dout(right_state, dr);
                DOut::Owned(out)
            }
            CKind::Join {
                left,
                right,
                lk,
                rk,
                left_state,
                right_state,
                scratch,
            } => {
                let dl = &outs[*left];
                let dr = &outs[*right];
                let mut out = CountedSet::new();
                // ΔL ⋈ R_old, folding ΔL into the left index as we go; one
                // key projection and fingerprint per row, shared between the
                // probe and the insert. NULL join keys match nothing.
                for (lt, lc) in dl.iter() {
                    bump(stats, count_work, 1);
                    lt.project_into(lk, scratch);
                    if scratch.iter().any(Value::is_null) {
                        continue;
                    }
                    let fp = fingerprint_values(scratch);
                    if let Some(rts) = right_state.get(fp, scratch) {
                        for (rt, rc) in rts.iter() {
                            bump(stats, count_work, 1);
                            out.add(lt.concat(rt), lc * rc);
                        }
                    }
                    insert_keyed(left_state, fp, scratch, lt, lc);
                }
                // L_new ⋈ ΔR — supplies both L_old ⋈ ΔR and ΔL ⋈ ΔR.
                for (rt, rc) in dr.iter() {
                    bump(stats, count_work, 1);
                    rt.project_into(rk, scratch);
                    if scratch.iter().any(Value::is_null) {
                        continue;
                    }
                    let fp = fingerprint_values(scratch);
                    if let Some(lts) = left_state.get(fp, scratch) {
                        for (lt, lc) in lts.iter() {
                            bump(stats, count_work, 1);
                            out.add(lt.concat(rt), lc * rc);
                        }
                    }
                    insert_keyed(right_state, fp, scratch, rt, rc);
                }
                DOut::Owned(out)
            }
            CKind::Aggregate {
                child,
                group_idx,
                specs,
                groups,
                scratch,
                touched,
                row_buf,
            } => {
                let d = &outs[*child];
                let global = group_idx.is_empty();
                touched.clear();
                // At initialization the global group must exist (and emit
                // its zero-state row) even over an empty input — COUNT(*)
                // of nothing is 0, not absent.
                if init && global {
                    let fp = fingerprint_values(&[]);
                    touched.get_or_insert_with(fp, &[], || None);
                    groups.get_or_insert_with(fp, &[], || GroupState::new(specs));
                }
                for (t, c) in d.iter() {
                    bump(stats, count_work, 1);
                    t.project_into(group_idx, scratch);
                    let fp = fingerprint_values(scratch);
                    if touched.get(fp, scratch).is_none() {
                        let old = match groups.get(fp, scratch) {
                            Some(g) => Some(g.output(scratch, row_buf)),
                            // The global group exists implicitly with zero
                            // state.
                            None => global.then(|| GroupState::new(specs).output(scratch, row_buf)),
                        };
                        touched.get_or_insert_with(fp, scratch, || old);
                    }
                    let g = groups.get_or_insert_with(fp, scratch, || GroupState::new(specs));
                    g.n += c;
                    if g.n < 0 {
                        return Err(CircuitError::InconsistentDelta(NegativeWeight {
                            tuple: Tuple::from_slice(scratch),
                            weight: g.n,
                        }));
                    }
                    for (acc, spec) in g.accs.iter_mut().zip(specs.iter()) {
                        acc.update(spec, t, c);
                    }
                }
                // Diff old vs new output per touched group. A group whose
                // aggregate values ended up unchanged (e.g. an update moving
                // a row between two states no aggregate observes) is
                // detected by comparing the finished accumulators against
                // the old snapshot *before* allocating a new output row.
                let mut out = CountedSet::new();
                for (key, old) in touched.iter() {
                    let fp = key.fingerprint();
                    let alive = match groups.get(fp, key.values()) {
                        Some(g) if g.n > 0 || global => {
                            let unchanged = old.as_ref().is_some_and(|o| {
                                let vals = &o.values()[key.arity()..];
                                g.accs
                                    .iter()
                                    .zip(vals)
                                    .all(|(acc, prev)| acc.finish() == *prev)
                            });
                            if !unchanged {
                                let n = g.output(key.values(), row_buf);
                                if let Some(o) = old {
                                    out.add(o.clone(), -1);
                                }
                                out.add(n, 1);
                            }
                            true
                        }
                        _ => {
                            if let Some(o) = old {
                                out.add(o.clone(), -1);
                            }
                            false
                        }
                    };
                    if !alive && !global && groups.get(fp, key.values()).is_some() {
                        groups.remove(fp, key.values());
                    }
                }
                DOut::Owned(out)
            }
            CKind::Distinct { child, state } => {
                let d = &outs[*child];
                let mut out = CountedSet::new();
                for (t, c) in d.iter() {
                    bump(stats, count_work, 1);
                    let old = state.count(t);
                    let new = state.add(t.clone(), c);
                    if new < 0 {
                        return Err(CircuitError::InconsistentDelta(NegativeWeight {
                            tuple: t.clone(),
                            weight: new,
                        }));
                    }
                    if old <= 0 && new > 0 {
                        out.add(t.clone(), 1);
                    } else if old > 0 && new <= 0 {
                        out.add(t.clone(), -1);
                    }
                }
                DOut::Owned(out)
            }
            CKind::Union { left, right } => {
                let dl = &outs[*left];
                let dr = &outs[*right];
                bump(stats, count_work, dr.distinct_len() as u64);
                let mut out = CountedSet::with_capacity(dl.distinct_len() + dr.distinct_len());
                merge_dout(&mut out, dl);
                merge_dout(&mut out, dr);
                DOut::Owned(out)
            }
            CKind::SetOp {
                left,
                right,
                kind,
                left_state,
                right_state,
            } => {
                let dl = &outs[*left];
                let dr = &outs[*right];
                let mut out = CountedSet::new();
                // Re-derive the output count of every touched tuple.
                for t in dl.iter().map(|(t, _)| t).chain(dr.iter().map(|(t, _)| t)) {
                    bump(stats, count_work, 1);
                    if out.count(t) != 0 {
                        continue; // handled from the other delta already
                    }
                    let old = kind.out_count(left_state.count(t), right_state.count(t));
                    let new = kind.out_count(
                        left_state.count(t) + dl.count(t),
                        right_state.count(t) + dr.count(t),
                    );
                    out.add(t.clone(), new - old);
                }
                merge_dout(left_state, dl);
                merge_dout(right_state, dr);
                DOut::Owned(out)
            }
            CKind::Fixpoint(fx) => DOut::Owned(fx.step_batch(input, stats, init, count_work)?),
        })
    }
}

impl Flow {
    /// Compiles `plan`; `rec` names the enclosing fixpoint's recursive
    /// relation when compiling a step term (`None` at top level).
    pub(crate) fn compile(
        plan: &Plan,
        db: &Database,
        rec: Option<&Arc<str>>,
    ) -> Result<Flow, CircuitError> {
        let mut nodes = Vec::new();
        compile_into(plan, db, rec, &mut nodes)?;
        Ok(Flow { nodes })
    }

    /// One bottom-up sweep: every node consumes its children's deltas (by
    /// index into `outs`) and appends its own. The root's delta is the
    /// circuit's output delta for this batch.
    fn run(
        &mut self,
        input: &BatchInput<'_>,
        stats: &mut CircuitStats,
        init: bool,
        count_work: bool,
    ) -> Result<CountedSet, CircuitError> {
        let mut outs: Vec<DOut<'_>> = Vec::with_capacity(self.nodes.len());
        for node in &mut self.nodes {
            let out = node.step(input, &outs, stats, init, count_work)?;
            outs.push(out);
        }
        Ok(outs.pop().map(DOut::into_owned).unwrap_or_default())
    }

    /// Clears all operator state, returning the flow to its pre-init form.
    fn reset(&mut self) {
        for node in &mut self.nodes {
            match &mut node.kind {
                CKind::Product {
                    left_state,
                    right_state,
                    ..
                } => {
                    *left_state = CountedSet::new();
                    *right_state = CountedSet::new();
                }
                CKind::Join {
                    left_state,
                    right_state,
                    ..
                } => {
                    left_state.clear();
                    right_state.clear();
                }
                CKind::Aggregate {
                    groups, touched, ..
                } => {
                    groups.clear();
                    touched.clear();
                }
                CKind::Distinct { state, .. } => *state = CountedSet::new(),
                CKind::SetOp {
                    left_state,
                    right_state,
                    ..
                } => {
                    *left_state = CountedSet::new();
                    *right_state = CountedSet::new();
                }
                CKind::Fixpoint(fx) => {
                    fx.base.reset();
                    fx.step.reset();
                    fx.rels.clear();
                    fx.derived = CountedSet::new();
                    fx.out = CountedSet::new();
                }
                CKind::Input { .. }
                | CKind::RecInput { .. }
                | CKind::Select { .. }
                | CKind::Project { .. }
                | CKind::Union { .. } => {}
            }
        }
    }
}

fn union_sources(a: &[Arc<str>], b: &[Arc<str>]) -> Vec<Arc<str>> {
    let mut out: Vec<Arc<str>> = a.iter().chain(b.iter()).map(Arc::clone).collect();
    out.sort();
    out.dedup();
    out
}

/// Number of references to the recursive relation `name` within `plan`
/// (not descending into inner fixpoints that rebind the same name).
fn count_rec(plan: &Plan, name: &str) -> usize {
    match plan {
        Plan::Scan { .. } => 0,
        Plan::Select { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Distinct { input } => count_rec(input, name),
        Plan::Product { left, right }
        | Plan::Join { left, right, .. }
        | Plan::Union { left, right }
        | Plan::Difference { left, right }
        | Plan::Intersect { left, right } => count_rec(left, name) + count_rec(right, name),
        Plan::Fixpoint {
            base, step, rec, ..
        } => {
            if rec.as_ref() == name {
                count_rec(base, name)
            } else {
                count_rec(base, name) + count_rec(step, name)
            }
        }
        Plan::Rec { name: n, .. } => usize::from(n.as_ref() == name),
    }
}

/// True when the plan is monotone in its inputs: inserting tuples can only
/// insert (never retract) output tuples. Aggregates and bag difference are
/// the non-monotone operators.
fn is_monotone(plan: &Plan) -> bool {
    match plan {
        Plan::Aggregate { .. } | Plan::Difference { .. } => false,
        Plan::Scan { .. } | Plan::Rec { .. } => true,
        Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Distinct { input } => {
            is_monotone(input)
        }
        Plan::Product { left, right }
        | Plan::Join { left, right, .. }
        | Plan::Union { left, right }
        | Plan::Intersect { left, right } => is_monotone(left) && is_monotone(right),
        Plan::Fixpoint { base, step, .. } => is_monotone(base) && is_monotone(step),
    }
}

fn compile_into(
    plan: &Plan,
    db: &Database,
    rec: Option<&Arc<str>>,
    nodes: &mut Vec<CNode>,
) -> Result<usize, CircuitError> {
    let (kind, sources) = match plan {
        Plan::Scan { relation, .. } => {
            db.relation(relation)
                .map_err(|_| PlanError::UnknownRelation(relation.to_string()))?;
            (
                CKind::Input {
                    relation: Arc::clone(relation),
                },
                vec![Arc::clone(relation)],
            )
        }
        Plan::Select { input, predicate } => {
            let cols = input.output_columns(db)?;
            let pred = predicate
                .bind(&cols)
                .map_err(|c| ExecError::Plan(PlanError::UnknownColumn(c)))?;
            let child = compile_into(input, db, rec, nodes)?;
            let src = nodes[child].sources.clone();
            (CKind::Select { child, pred }, src)
        }
        Plan::Project { input, columns } => {
            let cols = input.output_columns(db)?;
            let indices = columns
                .iter()
                .map(|c| {
                    resolve_column(&cols, c)
                        .ok_or_else(|| ExecError::Plan(PlanError::UnknownColumn(c.to_string())))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let child = compile_into(input, db, rec, nodes)?;
            let src = nodes[child].sources.clone();
            (CKind::Project { child, indices }, src)
        }
        Plan::Product { left, right } => {
            let l = compile_into(left, db, rec, nodes)?;
            let r = compile_into(right, db, rec, nodes)?;
            let src = union_sources(&nodes[l].sources, &nodes[r].sources);
            (
                CKind::Product {
                    left: l,
                    right: r,
                    left_state: CountedSet::new(),
                    right_state: CountedSet::new(),
                },
                src,
            )
        }
        Plan::Join { left, right, on } => {
            let l_cols = left.output_columns(db)?;
            let r_cols = right.output_columns(db)?;
            let (lk, rk) = join_key_indices(on, &l_cols, &r_cols)?;
            let l = compile_into(left, db, rec, nodes)?;
            let r = compile_into(right, db, rec, nodes)?;
            let src = union_sources(&nodes[l].sources, &nodes[r].sources);
            (
                CKind::Join {
                    left: l,
                    right: r,
                    lk,
                    rk,
                    left_state: TupleMap::new(),
                    right_state: TupleMap::new(),
                    scratch: Vec::new(),
                },
                src,
            )
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let cols = input.output_columns(db)?;
            let group_idx = group_by
                .iter()
                .map(|c| {
                    resolve_column(&cols, c)
                        .ok_or_else(|| ExecError::Plan(PlanError::UnknownColumn(c.to_string())))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let specs = bind_aggs(aggs, &cols)?;
            let child = compile_into(input, db, rec, nodes)?;
            let src = nodes[child].sources.clone();
            (
                CKind::Aggregate {
                    child,
                    group_idx,
                    specs,
                    groups: TupleMap::new(),
                    scratch: Vec::new(),
                    touched: TupleMap::new(),
                    row_buf: Vec::new(),
                },
                src,
            )
        }
        Plan::Distinct { input } => {
            let child = compile_into(input, db, rec, nodes)?;
            let src = nodes[child].sources.clone();
            (
                CKind::Distinct {
                    child,
                    state: CountedSet::new(),
                },
                src,
            )
        }
        Plan::Union { left, right } => {
            plan.output_columns(db)?;
            let l = compile_into(left, db, rec, nodes)?;
            let r = compile_into(right, db, rec, nodes)?;
            let src = union_sources(&nodes[l].sources, &nodes[r].sources);
            (CKind::Union { left: l, right: r }, src)
        }
        Plan::Difference { left, right } | Plan::Intersect { left, right } => {
            plan.output_columns(db)?;
            let kind = if matches!(plan, Plan::Difference { .. }) {
                SetOpKind::Difference
            } else {
                SetOpKind::Intersect
            };
            let l = compile_into(left, db, rec, nodes)?;
            let r = compile_into(right, db, rec, nodes)?;
            let src = union_sources(&nodes[l].sources, &nodes[r].sources);
            (
                CKind::SetOp {
                    left: l,
                    right: r,
                    kind,
                    left_state: CountedSet::new(),
                    right_state: CountedSet::new(),
                },
                src,
            )
        }
        Plan::Fixpoint {
            base,
            step,
            rec: name,
            all,
            cap,
            ..
        } => {
            if rec.is_some() {
                return Err(CircuitError::NestedRecursion {
                    name: name.to_string(),
                });
            }
            plan.output_columns(db)?; // arity agreement across terms
            if db.relation(name).is_ok() {
                return Err(CircuitError::ShadowedRelation {
                    name: name.to_string(),
                });
            }
            if count_rec(step, name) > 1 {
                return Err(CircuitError::NonLinearRecursion {
                    name: name.to_string(),
                });
            }
            let base_flow = Flow::compile(base, db, None)?;
            let step_flow = Flow::compile(step, db, Some(name))?;
            let monotone = is_monotone(base) && is_monotone(step);
            let sources = union_sources(&base.base_relations(), &step.base_relations());
            let step_sources = step.base_relations();
            (
                CKind::Fixpoint(Box::new(FixpointNode {
                    rec: Arc::clone(name),
                    all: *all,
                    cap: *cap,
                    monotone,
                    sources: sources.clone(),
                    step_sources,
                    base: base_flow,
                    step: step_flow,
                    rels: BTreeMap::new(),
                    derived: CountedSet::new(),
                    out: CountedSet::new(),
                })),
                sources,
            )
        }
        Plan::Rec { name, .. } => match rec {
            Some(r) if r.as_ref() == name.as_ref() => (
                CKind::RecInput {
                    name: Arc::clone(name),
                },
                vec![Arc::clone(name)],
            ),
            _ => {
                return Err(CircuitError::UnboundRecursion {
                    name: name.to_string(),
                })
            }
        },
    };
    nodes.push(CNode { kind, sources });
    Ok(nodes.len() - 1)
}

impl Flow {
    /// One-time full evaluation of a top-level flow: every source
    /// relation's contents are fed through as an insert-only delta from
    /// empty state (initialization *is* the first delta). Returns the
    /// initial answer.
    pub(crate) fn init(
        &mut self,
        db: &Database,
        sources: &[Arc<str>],
        stats: &mut CircuitStats,
    ) -> Result<CountedSet, CircuitError> {
        let mut full: BTreeMap<Arc<str>, CountedSet> = BTreeMap::new();
        for r in sources {
            let rel = db
                .relation(r)
                .map_err(|_| PlanError::UnknownRelation(r.to_string()))?;
            stats.init_tuples_scanned += rel.len() as u64;
            full.insert(
                Arc::clone(r),
                CountedSet::from_tuples(rel.tuples().cloned()),
            );
        }
        let input = BatchInput {
            deltas: None,
            full: Some(&full),
            rec: None,
        };
        self.run(&input, stats, true, false)
    }

    /// Propagates one world delta through a top-level flow, returning the
    /// root's output delta.
    pub(crate) fn apply(
        &mut self,
        deltas: &DeltaSet,
        stats: &mut CircuitStats,
    ) -> Result<CountedSet, CircuitError> {
        let input = BatchInput {
            deltas: Some(deltas),
            full: None,
            rec: None,
        };
        self.run(&input, stats, false, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::DEFAULT_FIXPOINT_CAP;
    use crate::exec::execute;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::ValueType;
    use crate::view::MaterializedView;

    fn link_db(edges: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        let schema =
            Schema::from_pairs(&[("src", ValueType::Int), ("dst", ValueType::Int)]).unwrap();
        db.create_relation("LINK", schema).unwrap();
        for &(s, d) in edges {
            db.relation_mut("LINK")
                .unwrap()
                .insert(tuple![s, d])
                .unwrap();
        }
        db
    }

    fn closure_plan() -> Plan {
        let step = Plan::rec("REACH", &["a", "b"])
            .join_on(Plan::scan("LINK"), &[("b", "src")])
            .project(&["a", "dst"]);
        Plan::scan("LINK").fixpoint(step, "REACH", &["a", "b"])
    }

    fn insert(rel: &Arc<str>, s: i64, d: i64) -> DeltaSet {
        let mut ds = DeltaSet::new();
        ds.record_insert(rel, tuple![s, d]);
        ds
    }

    fn remove(rel: &Arc<str>, s: i64, d: i64) -> DeltaSet {
        let mut ds = DeltaSet::new();
        ds.record_delete(rel, tuple![s, d]);
        ds
    }

    fn delete_row(db: &mut Database, s: i64, d: i64) {
        let rel = db.relation_mut("LINK").unwrap();
        let rid = rel
            .iter()
            .find(|(_, t)| **t == tuple![s, d])
            .map(|(rid, _)| rid)
            .unwrap();
        rel.delete(rid).unwrap();
    }

    #[test]
    fn closure_matches_executor() {
        let db = link_db(&[(1, 2), (2, 3), (3, 4)]);
        let plan = closure_plan();
        let circuit = MaterializedView::new(&plan, &db).unwrap();
        let (oracle, _) = execute(&plan, &db).unwrap();
        assert_eq!(
            circuit.result().sorted_entries(),
            oracle.rows.sorted_entries()
        );
        assert_eq!(circuit.result().total(), 6);
    }

    #[test]
    fn closure_incremental_insert_matches_recompute() {
        let mut db = link_db(&[(1, 2), (2, 3)]);
        let plan = closure_plan();
        let mut circuit = MaterializedView::new(&plan, &db).unwrap();
        let rel: Arc<str> = Arc::from("LINK");
        let recomputes = circuit.stats().fixpoint_recomputes;
        circuit.try_apply_delta(&insert(&rel, 3, 4)).unwrap();
        // Insert-only deltas on a monotone closure never force a rebuild.
        assert_eq!(circuit.stats().fixpoint_recomputes, recomputes);
        db.relation_mut("LINK")
            .unwrap()
            .insert(tuple![3, 4])
            .unwrap();
        let (oracle, _) = execute(&plan, &db).unwrap();
        assert_eq!(
            circuit.result().sorted_entries(),
            oracle.rows.sorted_entries()
        );
    }

    #[test]
    fn closure_incremental_retract_matches_recompute() {
        let mut db = link_db(&[(1, 2), (2, 3), (3, 4), (1, 4)]);
        let plan = closure_plan();
        let mut circuit = MaterializedView::new(&plan, &db).unwrap();
        let rel: Arc<str> = Arc::from("LINK");
        circuit.try_apply_delta(&remove(&rel, 2, 3)).unwrap();
        assert!(circuit.stats().fixpoint_recomputes >= 1);
        delete_row(&mut db, 2, 3);
        let (oracle, _) = execute(&plan, &db).unwrap();
        assert_eq!(
            circuit.result().sorted_entries(),
            oracle.rows.sorted_entries()
        );
    }

    #[test]
    fn closure_on_cycle_terminates() {
        // Set semantics converge on cyclic graphs.
        let db = link_db(&[(1, 2), (2, 3), (3, 1)]);
        let plan = closure_plan();
        let circuit = MaterializedView::new(&plan, &db).unwrap();
        assert_eq!(circuit.result().total(), 9); // complete digraph on the cycle
        let (oracle, _) = execute(&plan, &db).unwrap();
        assert_eq!(
            circuit.result().sorted_entries(),
            oracle.rows.sorted_entries()
        );
    }

    #[test]
    fn bag_closure_on_cycle_hits_cap() {
        let db = link_db(&[(1, 2), (2, 1)]);
        let step = Plan::rec("REACH", &["a", "b"])
            .join_on(Plan::scan("LINK"), &[("b", "src")])
            .project(&["a", "dst"]);
        let mut plan = Plan::scan("LINK").fixpoint(step, "REACH", &["a", "b"]);
        if let Plan::Fixpoint { all, .. } = &mut plan {
            *all = true;
        }
        let plan = plan.with_fixpoint_cap(50);
        let err = MaterializedView::new(&plan, &db).err().unwrap();
        assert_eq!(err, CircuitError::IterationLimit { cap: 50 });
        // The executor oracle agrees that this diverges.
        assert!(matches!(
            execute(&plan, &db),
            Err(ExecError::FixpointLimit { cap: 50 })
        ));
    }

    #[test]
    fn non_linear_recursion_is_rejected() {
        let db = link_db(&[(1, 2)]);
        // REACH ⋈ REACH: two references to the recursive relation.
        let step = Plan::rec("REACH", &["a", "b"])
            .join_on(Plan::rec("REACH", &["c", "d"]), &[("b", "c")])
            .project(&["a", "d"]);
        let plan = Plan::scan("LINK").fixpoint(step, "REACH", &["a", "b"]);
        let err = MaterializedView::new(&plan, &db).err().unwrap();
        assert!(
            matches!(err, CircuitError::NonLinearRecursion { .. }),
            "{err}"
        );
    }

    #[test]
    fn shadowing_a_relation_is_rejected() {
        let db = link_db(&[(1, 2)]);
        let step = Plan::rec("LINK", &["src", "dst"]);
        let plan = Plan::scan("LINK").fixpoint(step, "LINK", &["src", "dst"]);
        let err = MaterializedView::new(&plan, &db).err().unwrap();
        assert!(
            matches!(err, CircuitError::ShadowedRelation { .. }),
            "{err}"
        );
    }

    #[test]
    fn unbound_rec_is_rejected() {
        let db = link_db(&[(1, 2)]);
        let plan = Plan::rec("GHOST", &["a", "b"]);
        let err = MaterializedView::new(&plan, &db).err().unwrap();
        assert!(
            matches!(err, CircuitError::UnboundRecursion { .. }),
            "{err}"
        );
    }

    #[test]
    fn nested_recursion_is_rejected() {
        let db = link_db(&[(1, 2)]);
        let inner =
            Plan::scan("LINK").fixpoint(Plan::rec("IN", &["src", "dst"]), "IN", &["src", "dst"]);
        let plan = Plan::scan("LINK").fixpoint(inner, "OUT", &["src", "dst"]);
        let err = MaterializedView::new(&plan, &db).err().unwrap();
        assert!(matches!(err, CircuitError::NestedRecursion { .. }), "{err}");
    }

    #[test]
    fn inconsistent_retraction_surfaces_typed_error() {
        let db = link_db(&[(1, 2)]);
        let plan = Plan::scan("LINK").distinct();
        let mut circuit = MaterializedView::new(&plan, &db).unwrap();
        let rel: Arc<str> = Arc::from("LINK");
        let err = circuit.try_apply_delta(&remove(&rel, 9, 9)).unwrap_err();
        assert!(matches!(err, CircuitError::InconsistentDelta(_)), "{err}");
    }

    #[test]
    fn non_monotone_step_matches_executor() {
        // Recursive term with a difference: forces recompute-and-diff on
        // every delta, and the inflationary result must still match the
        // executor's iterated-naive accumulation.
        let db = link_db(&[(1, 2), (2, 3)]);
        let step = Plan::rec("R", &["a", "b"])
            .join_on(Plan::scan("LINK"), &[("b", "src")])
            .project(&["a", "dst"])
            .difference(Plan::scan("LINK"));
        let plan = Plan::scan("LINK").fixpoint(step, "R", &["a", "b"]);
        let mut circuit = MaterializedView::new(&plan, &db).unwrap();
        let (oracle, _) = execute(&plan, &db).unwrap();
        assert_eq!(
            circuit.result().sorted_entries(),
            oracle.rows.sorted_entries()
        );

        let rel: Arc<str> = Arc::from("LINK");
        circuit.try_apply_delta(&insert(&rel, 3, 4)).unwrap();
        assert!(circuit.stats().fixpoint_recomputes >= 1);
        let mut db2 = link_db(&[(1, 2), (2, 3), (3, 4)]);
        let (oracle2, _) = execute(&plan, &db2).unwrap();
        assert_eq!(
            circuit.result().sorted_entries(),
            oracle2.rows.sorted_entries()
        );
        delete_row(&mut db2, 1, 2);
        circuit.try_apply_delta(&remove(&rel, 1, 2)).unwrap();
        let (oracle3, _) = execute(&plan, &db2).unwrap();
        assert_eq!(
            circuit.result().sorted_entries(),
            oracle3.rows.sorted_entries()
        );
    }

    #[test]
    fn default_cap_is_generous() {
        let db = link_db(&[(1, 2)]);
        let plan = closure_plan();
        if let Plan::Fixpoint { cap, .. } = &plan {
            assert_eq!(*cap, DEFAULT_FIXPOINT_CAP);
        } else {
            panic!("expected fixpoint plan");
        }
        MaterializedView::new(&plan, &db).unwrap();
    }
}
