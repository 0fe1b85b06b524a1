//! Heap-table storage: pages, a row-id directory and a primary-key index.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use resildb_sim::{PageKey, SimContext};

use crate::error::{EngineError, Result};
use crate::page::{Page, Slot};
use crate::row::{decode_row, encode_row, Row, RowId, RowView};
use crate::schema::TableSchema;
use crate::value::Value;

/// Physical location of a row operation, recorded into the WAL exactly the
/// way the paper's DBMSs log it: logical page number + offset within page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowLocation {
    /// Page number within the table's heap.
    pub page: u64,
    /// Byte offset within the page *at the time of the operation*.
    pub offset: usize,
    /// Row image length in bytes.
    pub len: usize,
}

/// How a statement reaches the rows it may touch. The executor plans one
/// per table from the statement's predicate (`exec::plan_access`) and
/// [`Table::walk`] follows it. Every keyed arm yields rows in primary-key
/// order — the order the equality-prefix scan has always had — so
/// narrowing the path never reorders a result; a path only has to reach a
/// superset of the matching rows, because the executor re-checks the whole
/// predicate on every row image it is handed.
///
/// Keyed arms carry the order-preserving encoding ([`encode_key_part`]) of
/// the equality prefix; probes are built behind it in the same buffer.
#[derive(Debug)]
pub(crate) enum AccessPath<'a> {
    /// `<row-id pseudo-column> = n`: one directory lookup (how compensating
    /// statements address rows).
    RowId(RowId),
    /// Equality on every key column: one index lookup.
    Point(Vec<u8>),
    /// Equality on a proper prefix of the key columns: one index range.
    Prefix(Vec<u8>),
    /// Prefix equality plus `IN (..)` on the next key column: one probe per
    /// member, ascending. The members are sorted, de-duplicated and already
    /// of the column's type.
    In(Vec<u8>, &'a [Value]),
    /// Prefix equality plus bounds on the next key column: one index range.
    Range(Vec<u8>, Bound<Value>, Bound<Value>),
    /// No usable key predicate: every page, in storage order.
    FullScan,
}

/// Sets `end` to the exclusive upper bound of the keys that continue the
/// whole encoded key parts in `parts`: after a complete part comes the end
/// of the key or the next part's type tag, and both sort below `0xFF` — as
/// an escaped NUL (`00 FF`) continuing a string part does not.
fn parts_end(parts: &[u8], end: &mut Vec<u8>) {
    end.clear();
    end.extend_from_slice(parts);
    end.push(0xFF);
}

/// Feeds `items` to `step`, last first when `reverse`, until `step` answers
/// `Ok(false)`; returns whether it never did.
fn drive<T>(
    items: impl DoubleEndedIterator<Item = T>,
    reverse: bool,
    mut step: impl FnMut(T) -> Result<bool>,
) -> Result<bool> {
    if reverse {
        for item in items.rev() {
            if !step(item)? {
                return Ok(false);
            }
        }
    } else {
        for item in items {
            if !step(item)? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// A heap table: schema + pages + indexes.
#[derive(Debug)]
pub struct Table {
    schema: Arc<TableSchema>,
    /// Object id used for buffer-pool page keys.
    object_id: u32,
    pages: Vec<Page>,
    /// RowId → page number (offsets live in the page's slot directory).
    directory: HashMap<RowId, u64>,
    /// Order-preserving serialized PK → RowId (only when the schema has a
    /// primary key). Ordered so equality on a key *prefix* can be served
    /// as a range scan — the access path TPC-C's district-scoped queries
    /// rely on.
    pk_index: BTreeMap<Vec<u8>, RowId>,
    next_rowid: u64,
    next_identity: i64,
    row_count: u64,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema, object_id: u32) -> Self {
        Self {
            schema: Arc::new(schema),
            object_id,
            pages: Vec::new(),
            directory: HashMap::new(),
            pk_index: BTreeMap::new(),
            next_rowid: 1,
            next_identity: 1,
            row_count: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The schema, shared: a statement holds it without copying the column
    /// list or keeping the table latched.
    pub(crate) fn shared_schema(&self) -> Arc<TableSchema> {
        Arc::clone(&self.schema)
    }

    /// The buffer-pool object id.
    pub fn object_id(&self) -> u32 {
        self.object_id
    }

    /// Number of live rows.
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Serialises the primary-key values of `row` into an index key.
    /// Returns `None` when the table has no primary key.
    fn pk_key(&self, row: &Row) -> Option<Vec<u8>> {
        if self.schema.primary_key.is_empty() {
            return None;
        }
        let mut key = Vec::new();
        for &i in &self.schema.primary_key {
            encode_key_part(&row.0[i], &mut key);
        }
        Some(key)
    }

    /// Looks up a row id by full primary key values (in PK column order).
    pub fn lookup_pk(&self, values: &[Value]) -> Option<RowId> {
        self.pk_index.get(encode_key(values).as_slice()).copied()
    }

    /// All row ids whose primary key starts with `values` (a prefix of the
    /// PK columns, in key order) — an index range scan.
    pub fn lookup_pk_prefix(&self, values: &[Value]) -> Vec<RowId> {
        let key = encode_key(values);
        let mut end = Vec::new();
        parts_end(&key, &mut end);
        self.pk_index
            .range::<[u8], _>((
                Bound::Included(key.as_slice()),
                Bound::Excluded(end.as_slice()),
            ))
            .map(|(_, rid)| *rid)
            .collect()
    }

    /// Hands `visit` the current image of `rowid` (charging a page read and
    /// counting one examined row). Returns whether the walk should go on:
    /// `visit`'s answer, or `true` when the row is not resident.
    fn visit_row(
        &self,
        rowid: RowId,
        sim: &SimContext,
        examined: &mut u64,
        visit: &mut dyn FnMut(RowId, RowView<'_>) -> Result<bool>,
    ) -> Result<bool> {
        let Some(&page_no) = self.directory.get(&rowid) else {
            return Ok(true);
        };
        sim.charge_page_read(PageKey::new(self.object_id, page_no));
        let Some(image) = self.pages[page_no as usize].image_of(rowid) else {
            return Ok(true);
        };
        *examined += 1;
        visit(rowid, RowView::new(&self.schema, image)?)
    }

    /// Visits the index entries in `[lo, hi)`, backwards when `reverse`.
    fn visit_keys(
        &self,
        lo: &[u8],
        hi: &[u8],
        reverse: bool,
        sim: &SimContext,
        examined: &mut u64,
        visit: &mut dyn FnMut(RowId, RowView<'_>) -> Result<bool>,
    ) -> Result<bool> {
        // `BTreeMap::range` panics on an inverted range.
        if hi <= lo {
            return Ok(true);
        }
        let range = self
            .pk_index
            .range::<[u8], _>((Bound::Included(lo), Bound::Excluded(hi)));
        drive(range, reverse, |(_, &rid)| {
            self.visit_row(rid, sim, examined, visit)
        })
    }

    /// The table's one read cursor: hands `visit` the row id and the
    /// borrowed image of every row `path` reaches, in the path's order
    /// (backwards when `reverse`, which only keyed paths support), until
    /// `visit` returns `Ok(false)`. Charges a page read per row reached
    /// through the directory or the index and one per page of a full scan,
    /// and adds the number of images visited to `SimStats::rows_examined`.
    ///
    /// # Errors
    ///
    /// Corrupt images, and whatever `visit` returns.
    pub(crate) fn walk(
        &self,
        path: AccessPath<'_>,
        reverse: bool,
        sim: &SimContext,
        visit: &mut dyn FnMut(RowId, RowView<'_>) -> Result<bool>,
    ) -> Result<()> {
        let mut examined = 0;
        let result = self.walk_path(path, reverse, sim, &mut examined, visit);
        sim.stats().rows_examined.add(examined);
        result.map(|_| ())
    }

    fn walk_path(
        &self,
        path: AccessPath<'_>,
        reverse: bool,
        sim: &SimContext,
        examined: &mut u64,
        visit: &mut dyn FnMut(RowId, RowView<'_>) -> Result<bool>,
    ) -> Result<bool> {
        let mut end = Vec::new();
        match path {
            AccessPath::RowId(rid) => self.visit_row(rid, sim, examined, visit),
            AccessPath::Point(key) => match self.pk_index.get(key.as_slice()) {
                Some(&rid) => self.visit_row(rid, sim, examined, visit),
                None => Ok(true),
            },
            AccessPath::Prefix(key) => {
                parts_end(&key, &mut end);
                self.visit_keys(&key, &end, reverse, sim, examined, visit)
            }
            AccessPath::In(mut key, members) => {
                let prefix_len = key.len();
                drive(members.iter(), reverse, |member| {
                    key.truncate(prefix_len);
                    encode_key_part(member, &mut key);
                    parts_end(&key, &mut end);
                    self.visit_keys(&key, &end, reverse, sim, examined, visit)
                })
            }
            AccessPath::Range(mut key, lo, hi) => {
                // More key columns may follow the bounded one, so "above
                // v" starts where the keys that begin with v end, and "up
                // to v" ends there.
                let prefix_len = key.len();
                match &hi {
                    Bound::Unbounded => parts_end(&key, &mut end),
                    Bound::Included(v) => {
                        encode_key_part(v, &mut key);
                        parts_end(&key, &mut end);
                    }
                    Bound::Excluded(v) => {
                        end.extend_from_slice(&key);
                        encode_key_part(v, &mut end);
                    }
                }
                key.truncate(prefix_len);
                match &lo {
                    Bound::Unbounded => {}
                    Bound::Included(v) => encode_key_part(v, &mut key),
                    Bound::Excluded(v) => {
                        encode_key_part(v, &mut key);
                        key.push(0xFF);
                    }
                }
                self.visit_keys(&key, &end, reverse, sim, examined, visit)
            }
            AccessPath::FullScan => {
                for (page_no, page) in self.pages.iter().enumerate() {
                    if page.row_count() == 0 {
                        continue;
                    }
                    sim.charge_page_read(PageKey::new(self.object_id, page_no as u64));
                    for slot in page.slots() {
                        let image = page
                            .read_at(slot.offset, slot.len)
                            .ok_or_else(|| EngineError::Internal("corrupt slot".into()))?;
                        *examined += 1;
                        if !visit(slot.rowid, RowView::new(&self.schema, image)?)? {
                            return Ok(false);
                        }
                    }
                }
                Ok(true)
            }
        }
    }

    /// Validates NOT NULL constraints and fills the identity column when
    /// its value is absent/NULL. Returns the (possibly modified) row.
    fn prepare_insert(&mut self, mut row: Row) -> Result<Row> {
        if row.len() != self.schema.columns.len() {
            return Err(EngineError::Constraint(format!(
                "INSERT supplies {} values for {} columns of {}",
                row.len(),
                self.schema.columns.len(),
                self.schema.name
            )));
        }
        if let Some(idx) = self.schema.identity_column() {
            if row.0[idx].is_null() {
                row.0[idx] = Value::Int(self.next_identity);
                self.next_identity += 1;
            } else if let Value::Int(v) = row.0[idx] {
                self.next_identity = self.next_identity.max(v + 1);
            }
        }
        for (col, v) in self.schema.columns.iter().zip(row.values()) {
            if col.not_null && v.is_null() {
                return Err(EngineError::Constraint(format!(
                    "column {}.{} is NOT NULL",
                    self.schema.name, col.name
                )));
            }
        }
        // Coerce values to column storage types.
        let coerced: Result<Vec<Value>> = self
            .schema
            .columns
            .iter()
            .zip(row.0)
            .map(|(c, v)| v.coerce_to(c.ty))
            .collect();
        Ok(Row(coerced?))
    }

    /// Inserts `row`, returning its new id, the row as actually stored
    /// (identity filled, values coerced) and its physical location.
    ///
    /// Charges one page write to `sim`.
    ///
    /// # Errors
    ///
    /// Constraint violations (arity, NOT NULL, duplicate key) and encoding
    /// failures.
    pub fn insert(&mut self, row: Row, sim: &SimContext) -> Result<(RowId, Row, RowLocation)> {
        let row = self.prepare_insert(row)?;
        let key = self.pk_key(&row);
        if let Some(key) = &key {
            if self.pk_index.contains_key(key) {
                return Err(EngineError::DuplicateKey(format!(
                    "{} primary key {key:?}",
                    self.schema.name
                )));
            }
        }
        let image = encode_row(&self.schema, &row)?;
        let rowid = RowId(self.next_rowid);
        self.next_rowid += 1;
        // Find a page with space (last page first — heap append behaviour).
        let page_no = match self.pages.last() {
            Some(p) if p.free_space() >= image.len() => self.pages.len() as u64 - 1,
            _ => {
                self.pages.push(Page::new());
                self.pages.len() as u64 - 1
            }
        };
        let offset = self.pages[page_no as usize].insert(rowid, &image);
        self.directory.insert(rowid, page_no);
        if let Some(key) = key {
            self.pk_index.insert(key, rowid);
        }
        self.row_count += 1;
        sim.charge_page_write(PageKey::new(self.object_id, page_no));
        Ok((
            rowid,
            row,
            RowLocation {
                page: page_no,
                offset,
                len: image.len(),
            },
        ))
    }

    /// Re-inserts a row under a *specific* row id — used by transaction
    /// rollback and crash recovery, where the original identity of the row
    /// must be preserved (unlike SQL-level compensation, which deliberately
    /// goes through [`Self::insert`] and gets a fresh id, exercising the
    /// paper's row-id remapping).
    ///
    /// # Errors
    ///
    /// Fails if `rowid` is already live or the primary key collides.
    pub fn insert_with_rowid(
        &mut self,
        rowid: RowId,
        row: &Row,
        sim: &SimContext,
    ) -> Result<RowLocation> {
        if self.directory.contains_key(&rowid) {
            return Err(EngineError::Internal(format!("{rowid} already live")));
        }
        let key = self.pk_key(row);
        if let Some(key) = &key {
            if self.pk_index.contains_key(key) {
                return Err(EngineError::DuplicateKey(format!(
                    "{} primary key {key:?}",
                    self.schema.name
                )));
            }
        }
        let image = encode_row(&self.schema, row)?;
        self.next_rowid = self.next_rowid.max(rowid.0 + 1);
        if let Some(idx) = self.schema.identity_column() {
            if let Some(Value::Int(v)) = row.get(idx) {
                self.next_identity = self.next_identity.max(v + 1);
            }
        }
        let page_no = match self.pages.last() {
            Some(p) if p.free_space() >= image.len() => self.pages.len() as u64 - 1,
            _ => {
                self.pages.push(Page::new());
                self.pages.len() as u64 - 1
            }
        };
        let offset = self.pages[page_no as usize].insert(rowid, &image);
        self.directory.insert(rowid, page_no);
        if let Some(key) = key {
            self.pk_index.insert(key, rowid);
        }
        self.row_count += 1;
        sim.charge_page_write(PageKey::new(self.object_id, page_no));
        Ok(RowLocation {
            page: page_no,
            offset,
            len: image.len(),
        })
    }

    /// Restores a deleted row on the page it occupied, between its
    /// surviving neighbours — the rollback path. `after` is the row that
    /// preceded it when it was deleted (`Table::row_before`); the image is
    /// spliced in right behind that row, or, once another session has
    /// deleted that row too, at the last row boundary at or before the
    /// recorded offset. While no other session touched the page this is
    /// the exact pre-delete layout. Unlike [`Self::insert_with_rowid`],
    /// which appends to the last page, this reverses an aborted
    /// transaction's page churn. Required by the Sybase repair algorithm
    /// (paper §4.3): it resolves logged offsets against the current page,
    /// and a rolled-back transaction — which left no log records — must
    /// therefore leave no physical footprint either. Only when another
    /// session's insert has taken the freed space does the row go where
    /// [`Self::insert_with_rowid`] puts it.
    ///
    /// # Errors
    ///
    /// Fails if `rowid` is already live, the primary key collides, the
    /// image width differs from the recorded slot, or `loc` no longer
    /// names a page.
    pub fn restore_at(
        &mut self,
        rowid: RowId,
        row: Row,
        loc: RowLocation,
        after: Option<RowId>,
        sim: &SimContext,
    ) -> Result<()> {
        if self.directory.contains_key(&rowid) {
            return Err(EngineError::Internal(format!("{rowid} already live")));
        }
        if let Some(key) = self.pk_key(&row) {
            if self.pk_index.contains_key(&key) {
                return Err(EngineError::DuplicateKey(format!(
                    "{} primary key {key:?}",
                    self.schema.name
                )));
            }
        }
        let image = encode_row(&self.schema, &row)?;
        if image.len() != loc.len {
            return Err(EngineError::Internal(format!(
                "restore_at image width {} != recorded {}",
                image.len(),
                loc.len
            )));
        }
        let page = self
            .pages
            .get_mut(loc.page as usize)
            .ok_or_else(|| EngineError::Internal(format!("restore_at page {} gone", loc.page)))?;
        if image.len() > page.free_space() {
            // Another session filled what the delete freed: the row keeps
            // its id on another page rather than being lost.
            return self.insert_with_rowid(rowid, &row, sim).map(drop);
        }
        let offset = match after.and_then(|prev| page.slot_of(prev)) {
            Some(prev) => prev.offset + prev.len,
            None => (page.slots().iter())
                .map(|s| s.offset + s.len)
                .filter(|&end| end <= loc.offset)
                .max()
                .unwrap_or(0),
        };
        page.insert_at(rowid, &image, offset);
        self.next_rowid = self.next_rowid.max(rowid.0 + 1);
        self.directory.insert(rowid, loc.page);
        if let Some(key) = self.pk_key(&row) {
            self.pk_index.insert(key, rowid);
        }
        self.row_count += 1;
        sim.charge_page_write(PageKey::new(self.object_id, loc.page));
        Ok(())
    }

    /// Reads the current contents of `rowid` (charging a page read).
    pub fn get(&self, rowid: RowId, sim: &SimContext) -> Result<Option<Row>> {
        let mut row = None;
        self.walk(AccessPath::RowId(rowid), false, sim, &mut |_, view| {
            row = Some(view.to_row()?);
            Ok(false)
        })?;
        Ok(row)
    }

    /// The row whose image ends where `loc` begins: right after a delete,
    /// the deleted row's predecessor on its page (`None` if it was first).
    pub(crate) fn row_before(&self, loc: RowLocation) -> Option<RowId> {
        let page = self.pages.get(loc.page as usize)?;
        (page.slots().iter())
            .find(|s| s.offset + s.len == loc.offset)
            .map(|s| s.rowid)
    }

    /// Deletes `rowid`, returning the deleted row and the location it
    /// occupied. Later rows in the page migrate down (Sybase rule).
    pub fn delete(&mut self, rowid: RowId, sim: &SimContext) -> Result<Option<(Row, RowLocation)>> {
        let Some(&page_no) = self.directory.get(&rowid) else {
            return Ok(None);
        };
        let row = decode_row(&self.schema, self.image(rowid, page_no)?)?;
        let slot: Slot = self.pages[page_no as usize]
            .delete(rowid)
            .ok_or_else(|| EngineError::Internal(format!("directory stale for {rowid}")))?;
        self.directory.remove(&rowid);
        if let Some(key) = self.pk_key(&row) {
            self.pk_index.remove(&key);
        }
        self.row_count -= 1;
        sim.charge_page_write(PageKey::new(self.object_id, page_no));
        Ok(Some((
            row,
            RowLocation {
                page: page_no,
                offset: slot.offset,
                len: slot.len,
            },
        )))
    }

    /// Replaces `rowid`'s contents with `new_row` (same schema width, so
    /// strictly in place). `before` is the row's current image, which the
    /// caller has already read under the row's exclusive lock, so it cannot
    /// have changed since. Returns `(stored_new_row, location)`.
    pub fn update(
        &mut self,
        rowid: RowId,
        before: &Row,
        new_row: Row,
        sim: &SimContext,
    ) -> Result<Option<(Row, RowLocation)>> {
        let Some(&page_no) = self.directory.get(&rowid) else {
            return Ok(None);
        };
        let new_row = {
            // Re-run constraint checks (arity/NOT NULL/coercion).
            let coerced: Result<Vec<Value>> = self
                .schema
                .columns
                .iter()
                .zip(new_row.0)
                .map(|(c, v)| {
                    if c.not_null && v.is_null() {
                        Err(EngineError::Constraint(format!(
                            "column {}.{} is NOT NULL",
                            self.schema.name, c.name
                        )))
                    } else {
                        v.coerce_to(c.ty)
                    }
                })
                .collect();
            Row(coerced?)
        };
        let loc = self.write_image(rowid, page_no, self.pk_key(before), &new_row, sim)?;
        Ok(Some((new_row, loc)))
    }

    /// Writes back `row`, an image already checked and coerced when it was
    /// first stored (a logged after-image on redo, a before-image on
    /// rollback), over `rowid`, and decodes only the old image's
    /// primary-key columns. Returns `None` when `rowid` is not live.
    ///
    /// # Errors
    ///
    /// Duplicate key, encoding failures and a stale directory.
    pub(crate) fn rewrite_stored(
        &mut self,
        rowid: RowId,
        row: &Row,
        sim: &SimContext,
    ) -> Result<Option<RowLocation>> {
        let Some(&page_no) = self.directory.get(&rowid) else {
            return Ok(None);
        };
        let old_key = if self.schema.primary_key.is_empty() {
            None
        } else {
            let view = RowView::new(&self.schema, self.image(rowid, page_no)?)?;
            let mut key = Vec::new();
            for &i in &self.schema.primary_key {
                encode_key_part(&view.column(i)?, &mut key);
            }
            Some(key)
        };
        self.write_image(rowid, page_no, old_key, row, sim)
            .map(Some)
    }

    /// The stored image of `rowid`, which the directory places on page
    /// `page_no`.
    fn image(&self, rowid: RowId, page_no: u64) -> Result<&[u8]> {
        self.pages[page_no as usize]
            .image_of(rowid)
            .ok_or_else(|| EngineError::Internal(format!("directory stale for {rowid}")))
    }

    /// The one image-writing core of [`Self::update`] and
    /// [`Self::rewrite_stored`]: writes `new_row` (already of the column
    /// types) over `rowid` on page `page_no` in place, moving its
    /// primary-key entry from `old_key` when the key changed.
    fn write_image(
        &mut self,
        rowid: RowId,
        page_no: u64,
        old_key: Option<Vec<u8>>,
        new_row: &Row,
        sim: &SimContext,
    ) -> Result<RowLocation> {
        let new_key = self.pk_key(new_row);
        if old_key != new_key {
            if let Some(nk) = &new_key {
                if self.pk_index.contains_key(nk) {
                    return Err(EngineError::DuplicateKey(format!(
                        "{} primary key {nk:?}",
                        self.schema.name
                    )));
                }
            }
        }
        let image = encode_row(&self.schema, new_row)?;
        let slot = self.pages[page_no as usize]
            .update(rowid, &image)
            .ok_or_else(|| EngineError::Internal(format!("directory stale for {rowid}")))?;
        if old_key != new_key {
            if let Some(ok) = old_key {
                self.pk_index.remove(&ok);
            }
            if let Some(nk) = new_key {
                self.pk_index.insert(nk, rowid);
            }
        }
        sim.charge_page_write(PageKey::new(self.object_id, page_no));
        Ok(RowLocation {
            page: page_no,
            offset: slot.offset,
            len: slot.len,
        })
    }

    /// Scans all rows in storage order, charging one page read per page.
    /// The callback receives `(rowid, row)`.
    pub fn scan(
        &self,
        sim: &SimContext,
        mut f: impl FnMut(RowId, Row) -> Result<()>,
    ) -> Result<()> {
        self.walk(AccessPath::FullScan, false, sim, &mut |rid, view| {
            f(rid, view.to_row()?)?;
            Ok(true)
        })
    }

    /// Reads raw bytes from a page — the `dbcc page` primitive used by the
    /// Sybase-flavor repair path.
    pub fn read_page_bytes(&self, page: u64, offset: usize, len: usize) -> Option<&[u8]> {
        self.pages.get(page as usize)?.read_at(offset, len)
    }
}

/// The index key (or key prefix) of `values`, given in key-column order.
fn encode_key(values: &[Value]) -> Vec<u8> {
    let mut key = Vec::new();
    for v in values {
        encode_key_part(v, &mut key);
    }
    key
}

/// Appends an order-preserving, prefix-free encoding of `v`: byte-wise
/// comparison of encoded keys matches SQL value ordering within each type
/// (type tags keep mixed-type keys from colliding), and a key starts with
/// the encoding of `v` exactly when its column equals `v`.
pub(crate) fn encode_key_part(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0x00),
        Value::Int(i) => {
            out.push(0x01);
            out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
        }
        Value::Float(f) => {
            out.push(0x02);
            let bits = f.to_bits();
            let ordered = if bits & (1 << 63) != 0 {
                !bits
            } else {
                bits ^ (1 << 63)
            };
            out.extend_from_slice(&ordered.to_be_bytes());
        }
        Value::Bool(b) => {
            out.push(0x03);
            out.push(u8::from(*b));
        }
        Value::Str(s) => {
            out.push(0x04);
            // 0x00 terminates; an embedded NUL is escaped as 00 FF, which
            // still sorts above the terminator followed by any type tag.
            for &b in s.as_bytes() {
                out.push(b);
                if b == 0x00 {
                    out.push(0xFF);
                }
            }
            out.push(0x00);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(sql: &str) -> Table {
        let stmt = resildb_sql::parse_statement(sql).unwrap();
        let resildb_sql::Statement::CreateTable(c) = stmt else {
            unreachable!()
        };
        Table::new(TableSchema::from_create(&c).unwrap(), 7)
    }

    fn sim() -> SimContext {
        SimContext::free()
    }

    fn row(vals: Vec<Value>) -> Row {
        Row::new(vals)
    }

    #[test]
    fn insert_get_round_trip() {
        let mut t = table("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(8))");
        let s = sim();
        let (rid, _, loc) = t
            .insert(row(vec![Value::Int(1), Value::from("x")]), &s)
            .unwrap();
        assert_eq!(loc.page, 0);
        assert_eq!(loc.offset, 0);
        let got = t.get(rid, &s).unwrap().unwrap();
        assert_eq!(got.0, vec![Value::Int(1), Value::from("x")]);
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = table("CREATE TABLE t (a INTEGER PRIMARY KEY)");
        let s = sim();
        t.insert(row(vec![Value::Int(1)]), &s).unwrap();
        let err = t.insert(row(vec![Value::Int(1)]), &s).unwrap_err();
        assert!(matches!(err, EngineError::DuplicateKey(_)));
    }

    #[test]
    fn not_null_enforced() {
        let mut t = table("CREATE TABLE t (a INTEGER NOT NULL)");
        let err = t.insert(row(vec![Value::Null]), &sim()).unwrap_err();
        assert!(matches!(err, EngineError::Constraint(_)));
    }

    #[test]
    fn identity_fills_and_advances() {
        let mut t = table("CREATE TABLE t (a INTEGER, rid INTEGER IDENTITY)");
        let s = sim();
        let (r1, _, _) = t
            .insert(row(vec![Value::Int(10), Value::Null]), &s)
            .unwrap();
        let (r2, _, _) = t
            .insert(row(vec![Value::Int(20), Value::Null]), &s)
            .unwrap();
        assert_eq!(t.get(r1, &s).unwrap().unwrap().0[1], Value::Int(1));
        assert_eq!(t.get(r2, &s).unwrap().unwrap().0[1], Value::Int(2));
        // Explicit value bumps the counter past itself.
        t.insert(row(vec![Value::Int(30), Value::Int(10)]), &s)
            .unwrap();
        let (r4, _, _) = t
            .insert(row(vec![Value::Int(40), Value::Null]), &s)
            .unwrap();
        assert_eq!(t.get(r4, &s).unwrap().unwrap().0[1], Value::Int(11));
    }

    #[test]
    fn update_in_place_and_pk_reindex() {
        let mut t = table("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(8))");
        let s = sim();
        let (rid, old, loc0) = t
            .insert(row(vec![Value::Int(1), Value::from("x")]), &s)
            .unwrap();
        let (new, loc1) = t
            .update(rid, &old, row(vec![Value::Int(2), Value::from("y")]), &s)
            .unwrap()
            .unwrap();
        assert_eq!(new.0[0], Value::Int(2));
        assert_eq!(old.0[0], Value::Int(1));
        assert_eq!(loc0, loc1, "update is strictly in place");
        assert_eq!(t.lookup_pk(&[Value::Int(2)]), Some(rid));
        assert_eq!(t.lookup_pk(&[Value::Int(1)]), None);
    }

    #[test]
    fn delete_returns_old_row_and_updates_indexes() {
        let mut t = table("CREATE TABLE t (a INTEGER PRIMARY KEY)");
        let s = sim();
        let (rid, _, _) = t.insert(row(vec![Value::Int(5)]), &s).unwrap();
        let (deleted, _) = t.delete(rid, &s).unwrap().unwrap();
        assert_eq!(deleted.0[0], Value::Int(5));
        assert!(t.get(rid, &s).unwrap().is_none());
        assert_eq!(t.lookup_pk(&[Value::Int(5)]), None);
        assert_eq!(t.row_count(), 0);
        assert!(t.delete(rid, &s).unwrap().is_none());
    }

    #[test]
    fn rows_spill_onto_new_pages() {
        let mut t = table("CREATE TABLE t (a INTEGER, b VARCHAR(200))");
        let s = sim();
        // Each row ~220 bytes; 8K page holds ~37.
        for i in 0..100 {
            t.insert(row(vec![Value::Int(i), Value::from("p")]), &s)
                .unwrap();
        }
        assert!(t.page_count() >= 2, "pages: {}", t.page_count());
        let mut seen = 0;
        t.scan(&s, |_, _| {
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 100);
    }

    #[test]
    fn scan_charges_page_reads() {
        let mut t = table("CREATE TABLE t (a INTEGER)");
        let s = SimContext::new(resildb_sim::CostModel::disk_bound_oltp(), 64);
        t.insert(row(vec![Value::Int(1)]), &s).unwrap();
        let misses_before = s.stats().page_misses.get() + s.stats().page_hits.get();
        t.scan(&s, |_, _| Ok(())).unwrap();
        assert!(s.stats().page_misses.get() + s.stats().page_hits.get() > misses_before);
    }

    #[test]
    fn pk_prefix_lookup_returns_matching_rows_only() {
        let mut t =
            table("CREATE TABLE ol (w INTEGER, d INTEGER, o INTEGER, PRIMARY KEY (w, d, o))");
        let s = sim();
        for w in 1..=2 {
            for d in 1..=3 {
                for o in 1..=4 {
                    t.insert(row(vec![Value::Int(w), Value::Int(d), Value::Int(o)]), &s)
                        .unwrap();
                }
            }
        }
        assert_eq!(t.lookup_pk_prefix(&[Value::Int(1)]).len(), 12);
        assert_eq!(t.lookup_pk_prefix(&[Value::Int(2), Value::Int(3)]).len(), 4);
        assert_eq!(
            t.lookup_pk_prefix(&[Value::Int(2), Value::Int(3), Value::Int(4)])
                .len(),
            1
        );
        assert!(t.lookup_pk_prefix(&[Value::Int(9)]).is_empty());
    }

    #[test]
    fn pk_prefix_lookup_is_not_fooled_by_numeric_text_ordering() {
        // "10" < "9" lexicographically; the order-preserving encoding must
        // not mix id 1 prefixes into id 10, etc.
        let mut t = table("CREATE TABLE t2 (a INTEGER, b INTEGER, PRIMARY KEY (a, b))");
        let s = sim();
        for a in [1, 9, 10, 100] {
            t.insert(row(vec![Value::Int(a), Value::Int(1)]), &s)
                .unwrap();
        }
        assert_eq!(t.lookup_pk_prefix(&[Value::Int(1)]).len(), 1);
        assert_eq!(t.lookup_pk_prefix(&[Value::Int(10)]).len(), 1);
        // Negative keys order below positive ones.
        t.insert(row(vec![Value::Int(-5), Value::Int(1)]), &s)
            .unwrap();
        assert_eq!(t.lookup_pk_prefix(&[Value::Int(-5)]).len(), 1);
    }

    #[test]
    fn string_keys_are_prefix_free_even_with_embedded_nuls() {
        // The terminator byte is also a legal character: unescaped, the key
        // of ("a", ..) would be a prefix of the key of ("a\0b", ..), and
        // ("a\0") would sort below ("a").
        let mut t = table("CREATE TABLE s (k VARCHAR(4), n INTEGER, PRIMARY KEY (k, n))");
        let s = sim();
        for (k, n) in [("a", 5), ("a\0b", 1), ("a\0", 2), ("", 0), ("b", 1)] {
            t.insert(row(vec![Value::from(k), Value::Int(n)]), &s)
                .unwrap();
        }
        assert_eq!(t.lookup_pk_prefix(&[Value::from("a")]).len(), 1);
        assert_eq!(t.lookup_pk_prefix(&[Value::from("a\0")]).len(), 1);
        let mut in_key_order = Vec::new();
        t.walk(AccessPath::Prefix(Vec::new()), false, &s, &mut |_, view| {
            in_key_order.push(view.column(0)?);
            Ok(true)
        })
        .unwrap();
        let mut sorted = in_key_order.clone();
        sorted.sort_by(|a, b| a.sql_cmp(b).unwrap().unwrap());
        assert_eq!(in_key_order, sorted);
    }

    #[test]
    fn walk_counts_examined_rows_and_stops_when_told() {
        let mut t = table("CREATE TABLE w (a INTEGER, b INTEGER, PRIMARY KEY (a, b))");
        let s = sim();
        for b in [3, 1, 2, 5, 4] {
            t.insert(row(vec![Value::Int(1), Value::Int(b)]), &s)
                .unwrap();
        }
        let mut key = Vec::new();
        encode_key_part(&Value::Int(1), &mut key);
        let walk = |path: AccessPath<'_>, reverse: bool, stop_after: usize| {
            let before = s.stats().rows_examined.get();
            let mut seen = Vec::new();
            t.walk(path, reverse, &s, &mut |_, view| {
                seen.push(view.column(1)?);
                Ok(seen.len() < stop_after)
            })
            .unwrap();
            let seen: Vec<i64> = seen
                .into_iter()
                .map(|v| match v {
                    Value::Int(i) => i,
                    other => panic!("{other:?}"),
                })
                .collect();
            (seen, s.stats().rows_examined.get() - before)
        };
        assert_eq!(
            walk(AccessPath::Prefix(key.clone()), false, 9),
            (vec![1, 2, 3, 4, 5], 5)
        );
        assert_eq!(
            walk(AccessPath::Prefix(key.clone()), true, 2),
            (vec![5, 4], 2)
        );
        let range = |lo, hi| AccessPath::Range(key.clone(), lo, hi);
        assert_eq!(
            walk(
                range(
                    Bound::Excluded(Value::Int(1)),
                    Bound::Included(Value::Int(4))
                ),
                false,
                9
            ),
            (vec![2, 3, 4], 3)
        );
        assert_eq!(
            walk(
                range(Bound::Included(Value::Int(4)), Bound::Unbounded),
                true,
                9
            ),
            (vec![5, 4], 2)
        );
        // An inverted range is empty, not a panic.
        assert_eq!(
            walk(
                range(
                    Bound::Included(Value::Int(4)),
                    Bound::Excluded(Value::Int(2))
                ),
                false,
                9
            ),
            (vec![], 0)
        );
        let members = [Value::Int(2), Value::Int(4), Value::Int(9)];
        assert_eq!(
            walk(AccessPath::In(key.clone(), &members), true, 9),
            (vec![4, 2], 2)
        );
        // The heap scan keeps storage order.
        assert_eq!(
            walk(AccessPath::FullScan, false, 9),
            (vec![3, 1, 2, 5, 4], 5)
        );
    }

    #[test]
    fn dbcc_style_page_read() {
        let mut t = table("CREATE TABLE t (a INTEGER)");
        let s = sim();
        let (_, _, loc) = t.insert(row(vec![Value::Int(9)]), &s).unwrap();
        let bytes = t.read_page_bytes(loc.page, loc.offset, loc.len).unwrap();
        let decoded = decode_row(t.schema(), bytes).unwrap();
        assert_eq!(decoded.0[0], Value::Int(9));
    }
}
