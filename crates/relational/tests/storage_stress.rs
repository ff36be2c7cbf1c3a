//! Stress and edge-case tests for the storage layer: slot reuse under heavy
//! insert/delete churn, index consistency across mixed workloads, snapshot
//! immutability under copy-on-write sharing, and the algebra-level
//! validation of the set operators.

use fgdb_relational::{
    execute_simple, Database, Expr, Plan, Relation, RowId, Schema, Tuple, Value, ValueType,
};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::from_pairs(&[("id", ValueType::Int), ("s", ValueType::Str)])
        .unwrap()
        .with_primary_key("id")
        .unwrap()
}

proptest! {
    /// Random interleavings of insert/delete/update keep the relation, its
    /// primary-key index, and its secondary index mutually consistent.
    #[test]
    fn mixed_churn_keeps_indexes_consistent(
        ops in prop::collection::vec((0u8..3, 0i64..24, 0usize..4), 1..120),
    ) {
        const STRINGS: [&str; 4] = ["a", "b", "c", "d"];
        let mut db = Database::new();
        db.create_relation("T", schema()).unwrap();
        let rel = db.relation_mut("T").unwrap();
        rel.create_index("s").unwrap();
        let mut live: std::collections::HashMap<i64, usize> = Default::default();

        for (op, id, si) in ops {
            match op {
                0 => {
                    // Insert if absent.
                    if let std::collections::hash_map::Entry::Vacant(e) = live.entry(id) {
                        rel.insert(Tuple::new(vec![
                            Value::Int(id),
                            Value::str(STRINGS[si]),
                        ]))
                        .unwrap();
                        e.insert(si);
                    } else {
                        prop_assert!(rel
                            .insert(Tuple::new(vec![Value::Int(id), Value::str("x")]))
                            .is_err());
                    }
                }
                1 => {
                    // Delete if present.
                    if live.remove(&id).is_some() {
                        let rid = rel.find_by_pk(&Value::Int(id)).unwrap();
                        rel.delete(rid).unwrap();
                    } else {
                        prop_assert!(rel.find_by_pk(&Value::Int(id)).is_none());
                    }
                }
                _ => {
                    // Update string if present.
                    if let Some(cur) = live.get_mut(&id) {
                        let rid = rel.find_by_pk(&Value::Int(id)).unwrap();
                        rel.update_field(rid, 1, Value::str(STRINGS[si])).unwrap();
                        *cur = si;
                    }
                }
            }
            // Cross-check invariants after every operation.
            prop_assert_eq!(rel.len(), live.len());
        }
        // Secondary index agrees with a scan for every string value.
        for (i, s) in STRINGS.iter().enumerate() {
            let via_index: usize = rel
                .index_lookup(1, &Value::str(*s))
                .map(|r| r.len())
                .unwrap_or(0);
            let via_model = live.values().filter(|&&v| v == i).count();
            prop_assert_eq!(via_index, via_model, "index drift for {}", s);
        }
        // Every live row is reachable by primary key.
        for (&id, &si) in &live {
            let rid = rel.find_by_pk(&Value::Int(id)).unwrap();
            prop_assert_eq!(
                rel.get(rid).unwrap().get(1).as_str().unwrap(),
                STRINGS[si]
            );
        }
    }
}

/// A plain model of a relation with schema (id pk, s indexed, n): the slot
/// array and free stack, maintained by the same slot-assignment rule as
/// `Relation` (reuse the last freed slot, else append).
#[derive(Clone, Default)]
struct SlotModel {
    slots: Vec<Option<Tuple>>,
    free: Vec<u32>,
}

impl SlotModel {
    fn row_of(&self, id: i64) -> Option<RowId> {
        self.slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|t| t.get(0) == &Value::Int(id)))
            .map(|i| RowId(i as u32))
    }

    fn insert(&mut self, t: Tuple) -> RowId {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(t);
                RowId(i)
            }
            None => {
                self.slots.push(Some(t));
                RowId(self.slots.len() as u32 - 1)
            }
        }
    }

    /// Asserts `rel` holds exactly this model: slots, free stack, every pk
    /// lookup and every secondary-index lookup.
    fn check(&self, rel: &Relation, ids: i64, strings: &[&str]) -> Result<(), TestCaseError> {
        prop_assert_eq!(rel.raw_slots(), &self.slots[..]);
        prop_assert_eq!(rel.free_slots(), &self.free[..]);
        prop_assert_eq!(rel.len(), self.slots.iter().flatten().count());
        for id in 0..ids {
            prop_assert_eq!(
                rel.find_by_pk(&Value::Int(id)),
                self.row_of(id),
                "pk {}",
                id
            );
        }
        for s in strings {
            let mut got = rel.index_lookup(1, &Value::str(*s)).unwrap().to_vec();
            got.sort();
            let want: Vec<RowId> = (0..self.slots.len())
                .filter(|&i| {
                    self.slots[i]
                        .as_ref()
                        .is_some_and(|t| t.get(1).as_str() == Some(*s))
                })
                .map(|i| RowId(i as u32))
                .collect();
            prop_assert_eq!(got, want, "index entry {}", s);
        }
        Ok(())
    }
}

proptest! {
    /// Snapshots are frozen: random insert/delete/update churn — pk-column
    /// and indexed-column updates and free-slot reuse included, over a
    /// relation several storage chunks long — never changes a snapshot
    /// taken earlier, whether it was taken of the live relation, of another
    /// snapshot, or of a relation forked from a snapshot.
    #[test]
    fn snapshots_stay_frozen_under_churn(
        ops in prop::collection::vec((0u8..12, 0i64..400, 0usize..4, 0usize..64), 1..400),
    ) {
        const IDS: i64 = 400;
        const STRINGS: [&str; 4] = ["a", "b", "c", "d"];
        let sch = Schema::from_pairs(&[
            ("id", ValueType::Int),
            ("s", ValueType::Str),
            ("n", ValueType::Int),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap();
        let row = |id: i64, si: usize, n: usize| {
            Tuple::new(vec![Value::Int(id), Value::str(STRINGS[si]), Value::Int(n as i64)])
        };
        let mut rel = Relation::new("T", sch);
        rel.create_index("s").unwrap();
        let mut model = SlotModel::default();
        // Several chunks' worth of rows before the random phase.
        for id in (0..IDS).step_by(2) {
            let t = row(id, id as usize % 4, 0);
            prop_assert_eq!(rel.insert(t.clone()).unwrap(), model.insert(t));
        }
        let mut snaps: Vec<(Relation, SlotModel)> = Vec::new();

        for (op, id, si, n) in ops {
            match op {
                0..=2 => {
                    let t = row(id, si, n);
                    if model.row_of(id).is_none() {
                        prop_assert_eq!(rel.insert(t.clone()).unwrap(), model.insert(t));
                    } else {
                        prop_assert!(rel.insert(t).is_err());
                    }
                }
                3 | 4 => {
                    if let Some(rid) = model.row_of(id) {
                        let t = rel.delete(rid).unwrap();
                        prop_assert_eq!(Some(t), model.slots[rid.0 as usize].take());
                        model.free.push(rid.0);
                    } else {
                        prop_assert!(rel.find_by_pk(&Value::Int(id)).is_none());
                    }
                }
                5..=7 => {
                    // Indexed column (5), plain column (6, 7: the sampler's
                    // write-back shape).
                    if let Some(rid) = model.row_of(id) {
                        let (col, v) = if op == 5 {
                            (1, Value::str(STRINGS[si]))
                        } else {
                            (2, Value::Int(n as i64))
                        };
                        let (_, new) = rel.update_field(rid, col, v).unwrap();
                        model.slots[rid.0 as usize] = Some(new);
                    }
                }
                8 => {
                    // Primary-key column: move row `id` to key `n * 7 % IDS`.
                    let key = (n as i64 * 7) % IDS;
                    if let Some(rid) = model.row_of(id) {
                        let res = rel.update_field(rid, 0, Value::Int(key));
                        if key != id && model.row_of(key).is_some() {
                            prop_assert!(res.is_err());
                        } else {
                            let (_, new) = res.unwrap();
                            model.slots[rid.0 as usize] = Some(new);
                        }
                    }
                }
                9 | 10 => snaps.push((rel.snapshot(), model.clone())),
                _ => {
                    if snaps.is_empty() {
                        continue;
                    }
                    let k = n % snaps.len();
                    if si % 2 == 0 {
                        // Snapshot of a snapshot.
                        let (snap, m) = &snaps[k];
                        let pair = (snap.snapshot(), m.clone());
                        snaps.push(pair);
                    } else {
                        // Fork: keep writing into a copy of an old snapshot.
                        rel = snaps[k].0.snapshot();
                        model = snaps[k].1.clone();
                    }
                }
            }
        }
        model.check(&rel, IDS, &STRINGS)?;
        prop_assert!(model.slots.len() > 128, "spans at least three chunks");
        for (snap, frozen) in &snaps {
            frozen.check(snap, IDS, &STRINGS)?;
        }
    }
}

#[test]
fn set_operation_arity_validation() {
    let mut db = Database::new();
    db.create_relation("T", schema()).unwrap();
    db.relation_mut("T")
        .unwrap()
        .insert(Tuple::new(vec![Value::Int(1), Value::str("x")]))
        .unwrap();
    // Compatible arity works…
    let ok = Plan::scan("T")
        .project(&["s"])
        .union(Plan::scan_as("T", "B").project(&["B.s"]));
    assert!(execute_simple(&ok, &db).is_ok());
    // …mismatched arity does not.
    let bad = Plan::scan("T")
        .project(&["s"])
        .union(Plan::scan_as("T", "B"));
    assert!(bad.output_columns(&db).is_err());
    assert!(execute_simple(&bad, &db).is_err());
}

#[test]
fn set_operation_display_and_base_relations() {
    let p = Plan::scan("A")
        .difference(Plan::scan("B"))
        .intersect(Plan::scan("C"));
    assert_eq!(p.to_string(), "((Scan(A) ∖ Scan(B)) ∩ Scan(C))");
    let rels: Vec<String> = p.base_relations().iter().map(|r| r.to_string()).collect();
    assert_eq!(rels, vec!["A", "B", "C"]);
}

#[test]
fn self_difference_is_empty_and_self_intersect_is_identity() {
    let mut db = Database::new();
    db.create_relation("T", schema()).unwrap();
    let rel = db.relation_mut("T").unwrap();
    for i in 0..10i64 {
        rel.insert(Tuple::new(vec![Value::Int(i), Value::str("dup")]))
            .unwrap();
    }
    let proj = Plan::scan("T").project(&["s"]); // multiset of 10 × ("dup")
    let diff = execute_simple(&proj.clone().difference(proj.clone()), &db).unwrap();
    assert!(diff.rows.is_empty());
    let inter = execute_simple(&proj.clone().intersect(proj.clone()), &db).unwrap();
    assert_eq!(inter.rows.count(&Tuple::new(vec![Value::str("dup")])), 10);
    let filtered = Plan::scan("T")
        .filter(Expr::col("id").lt(Expr::lit(3i64)))
        .project(&["s"]);
    let partial = execute_simple(&proj.intersect(filtered), &db).unwrap();
    assert_eq!(partial.rows.count(&Tuple::new(vec![Value::str("dup")])), 3);
}
