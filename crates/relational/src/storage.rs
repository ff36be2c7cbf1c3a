//! Heap storage for relations.
//!
//! A [`Relation`] stores the deterministic tuples of the current possible
//! world in a slotted heap: rows get stable [`RowId`]s so the MCMC bridge can
//! address "the LABEL field of token 1234" as a random variable and write
//! sampled values back (§5 of the paper: "propagating changes to random
//! variables back to the tuples on disk").
//!
//! Updates are field-granular and return both the pre- and post-image of the
//! row; the delta tracker (see [`crate::delta`]) turns these into the Δ⁻/Δ⁺
//! auxiliary tables of §4.2.

use crate::fasthash::FxHashMap;
use crate::schema::{Schema, SchemaError};
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Stable identifier of a row slot within a relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row#{}", self.0)
    }
}

/// Errors raised by storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Schema validation failed.
    Schema(SchemaError),
    /// A primary key value is already present.
    DuplicateKey(String),
    /// The row id does not name a live row.
    NoSuchRow(RowId),
    /// Column index out of range.
    NoSuchColumn(usize),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Schema(e) => write!(f, "schema error: {e}"),
            StorageError::DuplicateKey(k) => write!(f, "duplicate primary key {k}"),
            StorageError::NoSuchRow(r) => write!(f, "no such row {r}"),
            StorageError::NoSuchColumn(c) => write!(f, "no such column index {c}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<SchemaError> for StorageError {
    fn from(e: SchemaError) -> Self {
        StorageError::Schema(e)
    }
}

/// A secondary hash index over one column.
///
/// The paper's scalability experiment deliberately runs *without* an index on
/// the STRING field (§5.3), so indexes are opt-in per column. When present,
/// the executor uses them for equality predicates.
#[derive(Clone, Debug, Default)]
struct HashIndex {
    column: usize,
    map: FxHashMap<Value, Vec<RowId>>,
}

impl HashIndex {
    fn insert(&mut self, row: RowId, t: &Tuple) {
        self.map
            .entry(t.get(self.column).clone())
            .or_default()
            .push(row);
    }

    fn remove(&mut self, row: RowId, t: &Tuple) {
        if let Some(v) = self.map.get_mut(t.get(self.column)) {
            if let Some(pos) = v.iter().position(|r| *r == row) {
                v.swap_remove(pos);
            }
            if v.is_empty() {
                self.map.remove(t.get(self.column));
            }
        }
    }
}

/// Slots per storage chunk. A write copies at most one chunk (if a
/// snapshot still shares it), so this trades write-back cost (one refcount
/// bump per slot of each copied chunk, and as many again when the old copy
/// is freed) against snapshot cost (one `Arc` per chunk). Measured per
/// published epoch on 10⁶ rows with 744 uniformly random field writes
/// between snapshots (2-core Xeon): 32 → 6.4–7.5 ms, 64 → 6.4–6.6 ms,
/// 128 → 8.6–9.0 ms, 256 → 13.6–14.9 ms, 512 → 24–26 ms.
const CHUNK: usize = 64;

/// A fixed-size run of slots, shared between a relation and its snapshots
/// until one of them writes to it. Slots past the relation's slot count
/// are `None`. One allocation: the slots sit right after the refcounts.
type Chunk = Arc<[Option<Tuple>; CHUNK]>;

fn empty_chunk() -> [Option<Tuple>; CHUNK] {
    std::array::from_fn(|_| None)
}

/// A named relation backed by a slotted heap.
///
/// Storage is structurally shared: slots live in fixed-size `Arc`'d chunks,
/// and the primary-key index, each secondary index and the free-slot stack
/// sit behind their own `Arc`. Cloning (see [`Relation::snapshot`]) copies
/// one pointer per chunk and per index — O(#chunks), not O(#rows). A write
/// copies only what it touches and what a snapshot still shares:
/// `update_field` copies one chunk (plus the pk index or a secondary index
/// when it writes a key or an indexed column); `insert` and `delete` also
/// copy the pk index, the free stack and every secondary index. A sampler's
/// write-back never writes a key, so one thinning interval copies O(|Δ|)
/// chunks. The clone shares no *observable* mutable state with the
/// original — replicas can be mutated by independent MCMC chains without
/// synchronization.
#[derive(Clone)]
pub struct Relation {
    name: Arc<str>,
    schema: Schema,
    /// Slot `i` is `chunks[i / CHUNK][i % CHUNK]`, for `i < slot_count`.
    chunks: Vec<Chunk>,
    slot_count: usize,
    free: Arc<Vec<u32>>,
    live: usize,
    /// Primary-key lookup. FxHash-keyed: `find_by_pk` sits on the MCMC
    /// write path (one probe per accepted proposal).
    pk_index: Arc<FxHashMap<Value, RowId>>,
    secondary: Vec<Arc<HashIndex>>,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new(name: impl Into<Arc<str>>, schema: Schema) -> Self {
        Relation {
            name: name.into(),
            schema,
            chunks: Vec::new(),
            slot_count: 0,
            free: Arc::default(),
            live: 0,
            pk_index: Arc::default(),
            secondary: Vec::new(),
        }
    }

    /// Relation name.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// Relation schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Creates a secondary hash index on `column` (by name), backfilling it
    /// from existing rows.
    pub fn create_index(&mut self, column: &str) -> Result<(), StorageError> {
        let col = self.schema.require(column)?;
        self.add_index(col);
        Ok(())
    }

    /// Builds and installs an index on column `col` (in range); idempotent.
    fn add_index(&mut self, col: usize) {
        if self.has_index_on(col) {
            return;
        }
        let mut ix = HashIndex {
            column: col,
            map: FxHashMap::default(),
        };
        for (rid, t) in self.iter() {
            ix.insert(rid, t);
        }
        self.secondary.push(Arc::new(ix));
    }

    /// True when a secondary index exists on `column` (by index).
    pub fn has_index_on(&self, column: usize) -> bool {
        self.secondary.iter().any(|ix| ix.column == column)
    }

    /// Looks up rows via the secondary index on `column`. Returns `None` when
    /// no such index exists (the caller must fall back to a scan).
    pub fn index_lookup(&self, column: usize, value: &Value) -> Option<&[RowId]> {
        self.secondary
            .iter()
            .find(|ix| ix.column == column)
            .map(|ix| ix.map.get(value).map(Vec::as_slice).unwrap_or(&[]))
    }

    /// The live tuple in slot `row`, made writable: the one chunk holding
    /// it is copied first if a snapshot still shares it. `None` (and no
    /// copy) when the slot is dead or out of range.
    fn live_slot_mut(&mut self, row: RowId) -> Option<&mut Option<Tuple>> {
        let (ci, off) = (row.0 as usize / CHUNK, row.0 as usize % CHUNK);
        let chunk = self.chunks.get_mut(ci)?;
        chunk[off].as_ref()?;
        Some(&mut Arc::make_mut(chunk)[off])
    }

    /// Inserts a tuple, enforcing schema and primary-key uniqueness.
    pub fn insert(&mut self, tuple: Tuple) -> Result<RowId, StorageError> {
        self.schema.check(tuple.values())?;
        if let Some(pk) = self.schema.primary_key() {
            let key = tuple.get(pk);
            if self.pk_index.contains_key(key) {
                return Err(StorageError::DuplicateKey(key.to_string()));
            }
        }
        let slot = match Arc::make_mut(&mut self.free).pop() {
            Some(slot) => slot as usize,
            None => {
                if self.slot_count.is_multiple_of(CHUNK) {
                    self.chunks.push(Arc::new(empty_chunk()));
                }
                self.slot_count += 1;
                self.slot_count - 1
            }
        };
        Arc::make_mut(&mut self.chunks[slot / CHUNK])[slot % CHUNK] = Some(tuple.clone());
        let rid = RowId(slot as u32);
        if let Some(pk) = self.schema.primary_key() {
            Arc::make_mut(&mut self.pk_index).insert(tuple.get(pk).clone(), rid);
        }
        for ix in &mut self.secondary {
            Arc::make_mut(ix).insert(rid, &tuple);
        }
        self.live += 1;
        Ok(rid)
    }

    /// Deletes a row, returning its final image.
    pub fn delete(&mut self, row: RowId) -> Result<Tuple, StorageError> {
        let tuple = self
            .live_slot_mut(row)
            .and_then(Option::take)
            .ok_or(StorageError::NoSuchRow(row))?;
        Arc::make_mut(&mut self.free).push(row.0);
        self.live -= 1;
        if let Some(pk) = self.schema.primary_key() {
            Arc::make_mut(&mut self.pk_index).remove(tuple.get(pk));
        }
        for ix in &mut self.secondary {
            Arc::make_mut(ix).remove(row, &tuple);
        }
        Ok(tuple)
    }

    /// Reads a row.
    pub fn get(&self, row: RowId) -> Option<&Tuple> {
        self.chunks.get(row.0 as usize / CHUNK)?[row.0 as usize % CHUNK].as_ref()
    }

    /// Updates one field of a row, returning `(old_image, new_image)`.
    ///
    /// This is the write path used by MCMC when a proposal is accepted: one
    /// random-variable change maps to one field update here, and the returned
    /// images feed the Δ⁻/Δ⁺ tracker. It copies the row's chunk if a
    /// snapshot shares it, and an index only when it changes a value in
    /// that index's column (the primary key's included).
    pub fn update_field(
        &mut self,
        row: RowId,
        column: usize,
        value: Value,
    ) -> Result<(Tuple, Tuple), StorageError> {
        if column >= self.schema.arity() {
            return Err(StorageError::NoSuchColumn(column));
        }
        // Field-granular validation: the stored row already satisfies the
        // schema, so only the incoming value needs a type check.
        self.schema.check_value(column, &value)?;
        let is_pk = Some(column) == self.schema.primary_key();
        let new = {
            let old = self.get(row).ok_or(StorageError::NoSuchRow(row))?;
            if is_pk && value != *old.get(column) && self.pk_index.contains_key(&value) {
                return Err(StorageError::DuplicateKey(value.to_string()));
            }
            old.with_value(column, value)
        };
        // Swap the new image in and move the old one out (no refcount
        // traffic for it — this is the per-accepted-proposal hot path).
        let old = self
            .live_slot_mut(row)
            .and_then(|slot| slot.replace(new.clone()))
            .ok_or(StorageError::NoSuchRow(row))?;
        // An unchanged value leaves every index (and its sharing) alone.
        if old.get(column) == new.get(column) {
            return Ok((old, new));
        }
        if is_pk {
            let pk_index = Arc::make_mut(&mut self.pk_index);
            pk_index.remove(old.get(column));
            pk_index.insert(new.get(column).clone(), row);
        }
        for ix in &mut self.secondary {
            if ix.column == column {
                let ix = Arc::make_mut(ix);
                ix.remove(row, &old);
                ix.insert(row, &new);
            }
        }
        Ok((old, new))
    }

    /// Looks up a row by primary key.
    pub fn find_by_pk(&self, key: &Value) -> Option<RowId> {
        self.pk_index.get(key).copied()
    }

    /// Iterates live rows in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Tuple)> {
        self.raw_slots()
            .into_iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (RowId(i as u32), t)))
    }

    /// Iterates live tuples in slot order, borrowing — no snapshot `Vec`,
    /// no per-tuple clone. Callers that genuinely need owned tuples (e.g.
    /// seeding a materialized view) clone per element via `.cloned()`.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.raw_slots().into_iter().filter_map(Option::as_ref)
    }

    /// Snapshot: an independent copy of this relation with identical rows,
    /// row ids, and indexes. Named alias of `Clone` marking intent at the
    /// call site. Costs one `Arc` clone per chunk and per index, O(#rows /
    /// 64); later writes on either side copy only the chunks they touch
    /// (see the type-level docs).
    pub fn snapshot(&self) -> Relation {
        self.clone()
    }

    /// The raw slot array, dead slots included — the serialization accessor
    /// the durability layer uses to persist a relation with its `RowId`
    /// address space intact (slot *i* holds the row addressed by
    /// `RowId(i)`). A borrowing view over the chunks: it iterates and
    /// compares in place and copies nothing.
    pub fn raw_slots(&self) -> RawSlots<'_> {
        RawSlots {
            chunks: &self.chunks,
            len: self.slot_count,
        }
    }

    /// The free-slot stack in pop order (last entry is reused next). Part of
    /// the persisted state so that a recovered relation hands out the same
    /// `RowId` for the next insert as the original would have.
    pub fn free_slots(&self) -> &[u32] {
        &self.free
    }

    /// Columns carrying a secondary hash index, in creation order. The index
    /// *contents* are derived state and are not persisted; recovery rebuilds
    /// them from the rows via [`Relation::create_index`].
    pub fn indexed_columns(&self) -> Vec<usize> {
        self.secondary.iter().map(|ix| ix.column).collect()
    }

    /// Rebuilds a relation from persisted parts: the raw slot array (see
    /// [`Relation::raw_slots`]), the free-slot stack, and the secondary-index
    /// column set. Primary-key and secondary indexes are re-derived from the
    /// slots in slot order. See [`RelationBuilder`] for the checks.
    pub fn from_raw_parts(
        name: impl Into<Arc<str>>,
        schema: Schema,
        slots: impl IntoIterator<Item = Option<Tuple>>,
        free: Vec<u32>,
        indexed_columns: &[usize],
    ) -> Result<Relation, StorageError> {
        let mut b = RelationBuilder::new(name, schema);
        for slot in slots {
            b.push_slot(slot)?;
        }
        b.finish(free, indexed_columns)
    }
}

/// Builds a relation slot by slot from persisted parts, straight into its
/// chunks — the decode path of [`Relation::from_raw_parts`], usable while
/// the slots are still being read.
///
/// Validates everything an on-disk source could get wrong: every tuple
/// re-checked against the schema as it arrives; at [`finish`], the free
/// list required to name exactly the dead slots (each once, in range) and
/// primary keys re-checked for uniqueness.
///
/// [`finish`]: RelationBuilder::finish
pub struct RelationBuilder {
    rel: Relation,
    /// The chunk being filled: the last `rel.slot_count % CHUNK` slots.
    filling: [Option<Tuple>; CHUNK],
    dead: usize,
}

impl RelationBuilder {
    /// Starts an empty relation.
    pub fn new(name: impl Into<Arc<str>>, schema: Schema) -> Self {
        RelationBuilder {
            rel: Relation::new(name, schema),
            filling: empty_chunk(),
            dead: 0,
        }
    }

    /// Appends the next slot (`None` = dead) at `RowId(slot count)`.
    pub fn push_slot(&mut self, slot: Option<Tuple>) -> Result<(), StorageError> {
        match &slot {
            Some(t) => {
                self.rel.schema.check(t.values())?;
                self.rel.live += 1;
            }
            None => self.dead += 1,
        }
        self.filling[self.rel.slot_count % CHUNK] = slot;
        self.rel.slot_count += 1;
        if self.rel.slot_count.is_multiple_of(CHUNK) {
            let full = std::mem::replace(&mut self.filling, empty_chunk());
            self.rel.chunks.push(Arc::new(full));
        }
        Ok(())
    }

    /// Installs the free-slot stack and builds the primary-key and
    /// secondary indexes. The pk index is built here, in one pass after
    /// the slots, rather than slot by slot while they are decoded: the
    /// decode runs measurably faster without its random-access inserts.
    pub fn finish(
        self,
        free: Vec<u32>,
        indexed_columns: &[usize],
    ) -> Result<Relation, StorageError> {
        let mut rel = self.rel;
        if !rel.slot_count.is_multiple_of(CHUNK) {
            rel.chunks.push(Arc::new(self.filling));
        }
        let slots = rel.raw_slots();
        let mut seen = vec![false; slots.len()];
        for &f in &free {
            let dead = slots.get(f as usize).map(Option::is_none);
            match (seen.get_mut(f as usize), dead) {
                // A free entry naming a live or already-freed slot, or out
                // of range.
                (Some(s), Some(true)) if !*s => *s = true,
                _ => return Err(StorageError::NoSuchRow(RowId(f))),
            }
        }
        if free.len() != self.dead {
            // A dead slot missing from the free list would be unreachable
            // for reuse forever.
            let missing = slots
                .into_iter()
                .zip(&seen)
                .position(|(slot, &freed)| slot.is_none() && !freed)
                .unwrap_or(0);
            return Err(StorageError::NoSuchRow(RowId(missing as u32)));
        }
        if let Some(pk) = rel.schema.primary_key() {
            let mut pk_index = FxHashMap::default();
            pk_index.reserve(rel.live);
            for (rid, t) in rel.iter() {
                let key = t.get(pk);
                if pk_index.insert(key.clone(), rid).is_some() {
                    return Err(StorageError::DuplicateKey(key.to_string()));
                }
            }
            rel.pk_index = Arc::new(pk_index);
        }
        rel.free = Arc::new(free);
        for &col in indexed_columns {
            if col >= rel.schema.arity() {
                return Err(StorageError::NoSuchColumn(col));
            }
            rel.add_index(col);
        }
        Ok(rel)
    }
}

/// A borrowing view of a relation's slot array (see
/// [`Relation::raw_slots`]): `len` slots, `None` for a dead one.
/// Iterates chunk by chunk and compares in place; two views over shared
/// chunks compare by pointer.
#[derive(Clone, Copy)]
pub struct RawSlots<'a> {
    chunks: &'a [Chunk],
    len: usize,
}

impl<'a> RawSlots<'a> {
    /// Slot count, dead slots included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no slots at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot `i`, if in range.
    pub fn get(&self, i: usize) -> Option<&'a Option<Tuple>> {
        if i < self.len {
            self.chunks.get(i / CHUNK).map(|c| &c[i % CHUNK])
        } else {
            None
        }
    }

    /// Iterates the slots in order.
    pub fn iter(&self) -> SlotIter<'a> {
        SlotIter {
            chunks: self.chunks.iter(),
            cur: [].iter(),
            left: self.len,
        }
    }

    /// Copies the slots into one flat vector.
    pub fn to_vec(&self) -> Vec<Option<Tuple>> {
        let mut v = Vec::with_capacity(self.len);
        for chunk in self.chunks {
            v.extend_from_slice(&chunk[..]);
        }
        v.truncate(self.len);
        v
    }
}

impl<'a> IntoIterator for RawSlots<'a> {
    type Item = &'a Option<Tuple>;
    type IntoIter = SlotIter<'a>;

    fn into_iter(self) -> SlotIter<'a> {
        self.iter()
    }
}

impl PartialEq for RawSlots<'_> {
    fn eq(&self, other: &Self) -> bool {
        // Equal slot counts mean equal chunk counts, and slots past the
        // count are `None` on both sides.
        self.len == other.len
            && self
                .chunks
                .iter()
                .zip(other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl PartialEq<&[Option<Tuple>]> for RawSlots<'_> {
    fn eq(&self, other: &&[Option<Tuple>]) -> bool {
        self.len == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for RawSlots<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`RawSlots`] view.
pub struct SlotIter<'a> {
    chunks: std::slice::Iter<'a, Chunk>,
    cur: std::slice::Iter<'a, Option<Tuple>>,
    /// Slots still to yield, counting those left in `cur`.
    left: usize,
}

impl<'a> Iterator for SlotIter<'a> {
    type Item = &'a Option<Tuple>;

    #[inline]
    fn next(&mut self) -> Option<&'a Option<Tuple>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        loop {
            if let Some(slot) = self.cur.next() {
                return Some(slot);
            }
            self.cur = self.chunks.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Relation {} {} [{} rows]",
            self.name, self.schema, self.live
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::ValueType;

    fn token_relation() -> Relation {
        let schema = Schema::from_pairs(&[
            ("tok_id", ValueType::Int),
            ("string", ValueType::Str),
            ("label", ValueType::Str),
        ])
        .unwrap()
        .with_primary_key("tok_id")
        .unwrap();
        Relation::new("TOKEN", schema)
    }

    #[test]
    fn insert_get_len() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "IBM", "O"]).unwrap();
        let b = r.insert(tuple![2i64, "said", "O"]).unwrap();
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(a).unwrap().get(1).as_str(), Some("IBM"));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut r = token_relation();
        r.insert(tuple![1i64, "a", "O"]).unwrap();
        let err = r.insert(tuple![1i64, "b", "O"]).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey(_)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn delete_frees_slot_and_pk() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "a", "O"]).unwrap();
        let t = r.delete(a).unwrap();
        assert_eq!(t.get(0), &Value::Int(1));
        assert_eq!(r.len(), 0);
        assert!(r.get(a).is_none());
        assert!(r.find_by_pk(&Value::Int(1)).is_none());
        // Slot is reused and the pk becomes insertable again.
        let b = r.insert(tuple![1i64, "a2", "O"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn double_delete_is_an_error() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "a", "O"]).unwrap();
        r.delete(a).unwrap();
        assert!(matches!(r.delete(a), Err(StorageError::NoSuchRow(_))));
    }

    #[test]
    fn update_field_returns_both_images() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "IBM", "O"]).unwrap();
        let (old, new) = r.update_field(a, 2, Value::str("B-ORG")).unwrap();
        assert_eq!(old.get(2).as_str(), Some("O"));
        assert_eq!(new.get(2).as_str(), Some("B-ORG"));
        assert_eq!(r.get(a).unwrap().get(2).as_str(), Some("B-ORG"));
    }

    #[test]
    fn update_pk_moves_index_entry() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "x", "O"]).unwrap();
        r.update_field(a, 0, Value::Int(9)).unwrap();
        assert!(r.find_by_pk(&Value::Int(1)).is_none());
        assert_eq!(r.find_by_pk(&Value::Int(9)), Some(a));
        // Updating into an existing pk is rejected.
        r.insert(tuple![1i64, "y", "O"]).unwrap();
        assert!(matches!(
            r.update_field(a, 0, Value::Int(1)),
            Err(StorageError::DuplicateKey(_))
        ));
    }

    #[test]
    fn update_bad_column_or_type() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "x", "O"]).unwrap();
        assert!(matches!(
            r.update_field(a, 7, Value::Int(0)),
            Err(StorageError::NoSuchColumn(7))
        ));
        assert!(matches!(
            r.update_field(a, 1, Value::Int(0)),
            Err(StorageError::Schema(_))
        ));
    }

    #[test]
    fn secondary_index_tracks_updates() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "IBM", "O"]).unwrap();
        let b = r.insert(tuple![2i64, "IBM", "O"]).unwrap();
        r.insert(tuple![3i64, "said", "O"]).unwrap();
        r.create_index("string").unwrap();
        let col = r.schema().index_of("string").unwrap();
        assert!(r.has_index_on(col));

        let hits = r.index_lookup(col, &Value::str("IBM")).unwrap();
        let mut hits: Vec<_> = hits.to_vec();
        hits.sort();
        assert_eq!(hits, vec![a, b]);

        r.update_field(a, col, Value::str("Apple")).unwrap();
        assert_eq!(r.index_lookup(col, &Value::str("IBM")).unwrap(), &[b]);
        assert_eq!(r.index_lookup(col, &Value::str("Apple")).unwrap(), &[a]);

        r.delete(b).unwrap();
        assert!(r.index_lookup(col, &Value::str("IBM")).unwrap().is_empty());
        // No index on label → None signals "must scan".
        assert!(r.index_lookup(2, &Value::str("O")).is_none());
    }

    #[test]
    fn iter_skips_dead_slots() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "a", "O"]).unwrap();
        r.insert(tuple![2i64, "b", "O"]).unwrap();
        r.delete(a).unwrap();
        let rows: Vec<_> = r.iter().map(|(_, t)| t.get(0).as_int().unwrap()).collect();
        assert_eq!(rows, vec![2]);
    }

    #[test]
    fn snapshot_is_fully_independent() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "IBM", "O"]).unwrap();
        let b = r.insert(tuple![2i64, "said", "O"]).unwrap();
        r.create_index("string").unwrap();
        let col = r.schema().index_of("string").unwrap();

        let mut snap = r.snapshot();
        // Same rows, ids, and index contents at snapshot time.
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.get(a), r.get(a));
        assert_eq!(snap.find_by_pk(&Value::Int(2)), Some(b));
        assert_eq!(snap.index_lookup(col, &Value::str("IBM")).unwrap(), &[a]);

        // Mutating the snapshot leaves the original untouched — storage,
        // pk index, and secondary index all diverge independently.
        snap.update_field(a, 2, Value::str("B-ORG")).unwrap();
        snap.update_field(a, col, Value::str("Apple")).unwrap();
        snap.delete(b).unwrap();
        assert_eq!(r.get(a).unwrap().get(2).as_str(), Some("O"));
        assert_eq!(r.len(), 2);
        assert_eq!(r.find_by_pk(&Value::Int(2)), Some(b));
        assert_eq!(r.index_lookup(col, &Value::str("IBM")).unwrap(), &[a]);
        assert!(r
            .index_lookup(col, &Value::str("Apple"))
            .unwrap()
            .is_empty());

        // And vice versa: mutating the original is invisible to the snapshot.
        r.update_field(b, 2, Value::str("B-PER")).unwrap();
        assert!(snap.get(b).is_none());
        // Freed slot in the snapshot is reusable without touching the original.
        let b2 = snap.insert(tuple![3i64, "Boston", "O"]).unwrap();
        assert_eq!(b2, b);
        assert_eq!(r.get(b).unwrap().get(0), &Value::Int(2));
    }

    #[test]
    fn snapshot_shares_storage_until_written() {
        let mut r = token_relation();
        for i in 0..3 * CHUNK as i64 {
            r.insert(tuple![i, "IBM", "O"]).unwrap();
        }
        r.create_index("string").unwrap();
        let snap = r.snapshot();
        let copied_chunks = |r: &Relation| {
            r.chunks
                .iter()
                .zip(&snap.chunks)
                .filter(|(a, b)| !Arc::ptr_eq(a, b))
                .count()
        };
        let pk_shared = |r: &Relation| Arc::ptr_eq(&r.pk_index, &snap.pk_index);
        let ix_shared = |r: &Relation| Arc::ptr_eq(&r.secondary[0], &snap.secondary[0]);
        assert_eq!(copied_chunks(&r), 0);

        // A plain-column write (the sampler's write-back) copies one chunk
        // and no index; a second write to that chunk copies nothing more.
        let row = RowId(CHUNK as u32 + 1);
        r.update_field(row, 2, Value::str("B-ORG")).unwrap();
        r.update_field(RowId(CHUNK as u32 + 2), 2, Value::str("B-ORG"))
            .unwrap();
        assert_eq!(copied_chunks(&r), 1);
        assert!(pk_shared(&r) && ix_shared(&r));
        // Rewriting an indexed column to its current value copies no index.
        r.update_field(RowId(0), 1, Value::str("IBM")).unwrap();
        assert!(ix_shared(&r));
        // Changing an indexed column copies that index; a key, the pk index.
        r.update_field(RowId(0), 1, Value::str("Apple")).unwrap();
        assert!(!ix_shared(&r) && pk_shared(&r));
        r.update_field(RowId(1), 0, Value::Int(10_000)).unwrap();
        assert!(!pk_shared(&r));
        assert_eq!(copied_chunks(&r), 2);

        // The snapshot saw none of it.
        assert_eq!(snap.get(row).unwrap().get(2).as_str(), Some("O"));
        assert_eq!(snap.find_by_pk(&Value::Int(1)), Some(RowId(1)));
        assert_eq!(
            snap.index_lookup(1, &Value::str("IBM")).unwrap().len(),
            3 * CHUNK
        );
    }

    #[test]
    fn raw_slots_compare_by_content() {
        let build = || {
            let mut r = token_relation();
            for i in 0..CHUNK as i64 + 5 {
                r.insert(tuple![i, "a", "O"]).unwrap();
            }
            r.delete(RowId(3)).unwrap();
            r
        };
        let (mut a, b) = (build(), build());
        // Separately built, so no chunk is shared: equal by content.
        assert_eq!(a.raw_slots(), b.raw_slots());
        assert_eq!(a.raw_slots().len(), CHUNK + 5);
        assert_eq!(a.raw_slots().iter().count(), CHUNK + 5);
        assert_eq!(a.raw_slots(), &a.raw_slots().to_vec()[..]);
        assert!(a.raw_slots().get(CHUNK + 5).is_none());
        a.update_field(RowId(CHUNK as u32 + 1), 2, Value::str("B-ORG"))
            .unwrap();
        assert_ne!(a.raw_slots(), b.raw_slots());
        a.insert(tuple![1000i64, "z", "O"]).unwrap(); // refills slot 3
        assert_ne!(a.raw_slots(), b.raw_slots());
    }

    #[test]
    fn from_raw_parts_round_trips_with_dead_slots() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "IBM", "O"]).unwrap();
        let b = r.insert(tuple![2i64, "said", "O"]).unwrap();
        r.insert(tuple![3i64, "Boston", "O"]).unwrap();
        r.delete(b).unwrap();
        r.create_index("string").unwrap();
        let col = r.schema().index_of("string").unwrap();

        let rebuilt = Relation::from_raw_parts(
            Arc::clone(r.name()),
            r.schema().clone(),
            r.raw_slots().to_vec(),
            r.free_slots().to_vec(),
            &r.indexed_columns(),
        )
        .unwrap();
        assert_eq!(rebuilt.len(), r.len());
        assert_eq!(rebuilt.get(a), r.get(a));
        assert!(rebuilt.get(b).is_none());
        assert_eq!(
            rebuilt.find_by_pk(&Value::Int(3)),
            r.find_by_pk(&Value::Int(3))
        );
        assert_eq!(rebuilt.index_lookup(col, &Value::str("IBM")).unwrap(), &[a]);
        // The freed slot is reused identically on both sides.
        let mut r2 = rebuilt;
        let expect = r.insert(tuple![4i64, "x", "O"]).unwrap();
        let got = r2.insert(tuple![4i64, "x", "O"]).unwrap();
        assert_eq!(expect, got);
        assert_eq!(expect, b);
    }

    #[test]
    fn from_raw_parts_rejects_corrupt_parts() {
        let r = token_relation();
        let schema = r.schema().clone();
        let live = Some(tuple![1i64, "a", "O"]);
        // Free entry pointing at a live slot.
        assert!(
            Relation::from_raw_parts("T", schema.clone(), vec![live.clone()], vec![0], &[])
                .is_err()
        );
        // Free entry out of range.
        assert!(
            Relation::from_raw_parts("T", schema.clone(), vec![live.clone()], vec![5], &[])
                .is_err()
        );
        // Dead slot missing from the free list.
        assert!(Relation::from_raw_parts("T", schema.clone(), vec![None], vec![], &[]).is_err());
        // Duplicate free entry for one dead slot.
        assert!(
            Relation::from_raw_parts("T", schema.clone(), vec![None], vec![0, 0], &[]).is_err()
        );
        // Duplicate primary keys across slots.
        assert!(Relation::from_raw_parts(
            "T",
            schema.clone(),
            vec![live.clone(), Some(tuple![1i64, "b", "O"])],
            vec![],
            &[]
        )
        .is_err());
        // Schema violation inside a slot.
        assert!(Relation::from_raw_parts(
            "T",
            schema.clone(),
            vec![Some(tuple!["not-an-int", "a", "O"])],
            vec![],
            &[]
        )
        .is_err());
        // Index on a column the schema does not have.
        assert!(Relation::from_raw_parts("T", schema, vec![live], vec![], &[9]).is_err());
    }

    #[test]
    fn tuples_borrows_live_rows() {
        let mut r = token_relation();
        let a = r.insert(tuple![1i64, "a", "O"]).unwrap();
        r.insert(tuple![2i64, "b", "O"]).unwrap();
        r.delete(a).unwrap();
        let ids: Vec<i64> = r.tuples().map(|t| t.get(0).as_int().unwrap()).collect();
        assert_eq!(ids, vec![2]);
        // The iterator borrows: the same tuple address is observed twice.
        let first = r.tuples().next().unwrap() as *const Tuple;
        let again = r.tuples().next().unwrap() as *const Tuple;
        assert_eq!(first, again);
    }
}
