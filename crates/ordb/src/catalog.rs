//! The catalog: table, column, and index metadata.
//!
//! Its rows live in the heap file [`CATALOG_FILE`] (`f00000.dat`), through
//! the same buffer pool, write-ahead log and `xmin`/`xmax` headers as user
//! rows: each DDL statement is one transaction that inserts a row (CREATE)
//! or claims one's `xmax` (DROP). [`Database::open`] reads the live rows
//! back with [`Catalog::read`]; the [`Catalog`] maps are the in-memory copy.
//!
//! Identifiers are case-insensitive (stored as written, matched lowered),
//! following SQL convention.
//!
//! [`Database::open`]: crate::db::Database::open

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{DbError, Result};
use crate::storage::buffer::FileId;
use crate::storage::heap::{HeapFile, PageScan, Rid};
use crate::tuple::decode_row;
use crate::types::{DataType, Row, Value};

/// The heap file holding the catalog's own rows. User files start at 1.
pub const CATALOG_FILE: FileId = 0;

/// A column: name and declared type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name as declared.
    pub name: String,
    /// Declared type.
    pub ty: DataType,
}

impl ColumnDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: DataType) -> ColumnDef {
        ColumnDef { name: name.into(), ty }
    }
}

/// A table: columns plus the heap file holding its rows.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name as declared.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Heap file id.
    pub file: FileId,
}

impl TableDef {
    /// Index of column `name` (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// A secondary index over one or more columns of a table.
#[derive(Debug, Clone)]
pub struct IndexDef {
    /// Index name as declared.
    pub name: String,
    /// Owning table name.
    pub table: String,
    /// Indexed column names in key order.
    pub columns: Vec<String>,
    /// B+Tree file id.
    pub file: FileId,
}

/// The catalog of one database.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, TableDef>,
    indexes: HashMap<String, IndexDef>,
    /// Indexes per table (lowered table name).
    by_table: HashMap<String, Vec<String>>,
    /// Each live object's catalog-heap row, by the object's file.
    rows: HashMap<FileId, Rid>,
    next_file: FileId,
}

impl Catalog {
    /// An empty catalog whose first allocated file id is 1.
    pub fn new() -> Catalog {
        Catalog { next_file: CATALOG_FILE + 1, ..Default::default() }
    }

    /// Read the catalog from its heap: the rows `live(xmin, xmax)` accepts.
    /// File ids resume past the highest a row names — open deletes every
    /// other data file, and replaces the log, before handing one out.
    pub fn read(heap: Arc<HeapFile>, live: impl Fn(u64, u64) -> bool) -> Result<Catalog> {
        let mut rows = Vec::new();
        let mut scan = PageScan::new(heap);
        while scan.next_page(&live, |rid, _, _, body| {
            rows.push((rid, decode_entry(body)?));
            Ok(())
        })? {}
        // An index names its table, so tables go in first.
        rows.sort_by_key(|(_, (_, entry))| matches!(entry, Entry::Index(_)));
        let mut cat = Catalog::new();
        for (rid, (file, entry)) in rows {
            match entry {
                Entry::Table(def) => cat.add_table(def)?,
                Entry::Index(def) => cat.add_index(def)?,
            }
            cat.set_row(file, rid);
            cat.next_file = cat.next_file.max(file + 1);
        }
        Ok(cat)
    }

    /// Allocate a fresh file id.
    pub fn allocate_file_id(&mut self) -> FileId {
        let id = self.next_file;
        self.next_file += 1;
        id
    }

    /// Record the catalog-heap row of the object stored in `file`.
    pub(crate) fn set_row(&mut self, file: FileId, rid: Rid) {
        self.rows.insert(file, rid);
    }

    /// The catalog-heap row of the live object stored in `file`.
    pub(crate) fn row_of(&self, file: FileId) -> Option<Rid> {
        self.rows.get(&file).copied()
    }

    /// Register a table.
    pub fn add_table(&mut self, def: TableDef) -> Result<()> {
        let key = def.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(DbError::Catalog(format!("table {:?} already exists", def.name)));
        }
        self.tables.insert(key, def);
        Ok(())
    }

    /// Register an index.
    pub fn add_index(&mut self, def: IndexDef) -> Result<()> {
        let key = def.name.to_ascii_lowercase();
        if self.indexes.contains_key(&key) {
            return Err(DbError::Catalog(format!("index {:?} already exists", def.name)));
        }
        let table_key = def.table.to_ascii_lowercase();
        if !self.tables.contains_key(&table_key) {
            return Err(DbError::Catalog(format!("unknown table {:?}", def.table)));
        }
        self.by_table.entry(table_key).or_default().push(key.clone());
        self.indexes.insert(key, def);
        Ok(())
    }

    /// Look up a table (case-insensitive).
    pub fn table(&self, name: &str) -> Option<&TableDef> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Look up a table that must exist (case-insensitive).
    pub(crate) fn existing_table(&self, name: &str) -> Result<&TableDef> {
        self.table(name).ok_or_else(|| DbError::Catalog(format!("unknown table {name:?}")))
    }

    /// Look up an index by name.
    pub fn index(&self, name: &str) -> Option<&IndexDef> {
        self.indexes.get(&name.to_ascii_lowercase())
    }

    /// Indexes defined on `table`.
    pub fn indexes_of(&self, table: &str) -> Vec<&IndexDef> {
        self.by_table
            .get(&table.to_ascii_lowercase())
            .map(|names| names.iter().filter_map(|n| self.indexes.get(n)).collect())
            .unwrap_or_default()
    }

    /// All tables, unordered.
    pub fn tables(&self) -> impl Iterator<Item = &TableDef> {
        self.tables.values()
    }

    /// All indexes, unordered.
    pub fn indexes(&self) -> impl Iterator<Item = &IndexDef> {
        self.indexes.values()
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Remove an index. Returns its definition.
    pub fn remove_index(&mut self, name: &str) -> Result<IndexDef> {
        let key = name.to_ascii_lowercase();
        let def = self
            .indexes
            .remove(&key)
            .ok_or_else(|| DbError::Catalog(format!("unknown index {name:?}")))?;
        if let Some(list) = self.by_table.get_mut(&def.table.to_ascii_lowercase()) {
            list.retain(|n| n != &key);
        }
        self.rows.remove(&def.file);
        Ok(def)
    }

    /// Remove a table and all its indexes. Returns their definitions.
    pub fn remove_table(&mut self, name: &str) -> Result<(TableDef, Vec<IndexDef>)> {
        let key = name.to_ascii_lowercase();
        let def = self
            .tables
            .remove(&key)
            .ok_or_else(|| DbError::Catalog(format!("unknown table {name:?}")))?;
        let index_names: Vec<String> = self.by_table.remove(&key).unwrap_or_default();
        let mut dropped = Vec::new();
        for n in index_names {
            if let Some(ix) = self.indexes.remove(&n) {
                self.rows.remove(&ix.file);
                dropped.push(ix);
            }
        }
        self.rows.remove(&def.file);
        Ok((def, dropped))
    }
}

/// One catalog row, decoded.
enum Entry {
    Table(TableDef),
    Index(IndexDef),
}

/// A table's catalog row: `[file, name, NULL, column count]`, then each
/// column's name and type.
pub(crate) fn table_row(def: &TableDef) -> Row {
    let columns = def
        .columns
        .iter()
        .flat_map(|c| [Value::str(c.name.as_str()), Value::str(c.ty.to_string())]);
    head(def.file, &def.name, Value::Null, def.columns.len()).into_iter().chain(columns).collect()
}

/// An index's catalog row: `[file, name, table, column count]`, then its
/// key column names in order.
pub(crate) fn index_row(def: &IndexDef) -> Row {
    let columns = def.columns.iter().map(|c| Value::str(c.as_str()));
    let table = Value::str(def.table.as_str());
    head(def.file, &def.name, table, def.columns.len()).into_iter().chain(columns).collect()
}

fn head(file: FileId, name: &str, table: Value, columns: usize) -> [Value; 4] {
    [Value::Int(i64::from(file)), Value::str(name), table, Value::Int(columns as i64)]
}

/// A catalog row's object and the file it is stored in.
fn decode_entry(body: &[u8]) -> Result<(FileId, Entry)> {
    let bad = || DbError::Corrupt("malformed catalog row".into());
    let text = |v: &Value| v.as_str().map(str::to_string).ok_or_else(bad);
    let head = decode_row(body, 4)?;
    let file = head[0].as_int().and_then(|f| FileId::try_from(f).ok()).ok_or_else(bad)?;
    let n = head[3].as_int().and_then(|n| usize::try_from(n).ok()).ok_or_else(bad)?;
    let name = text(&head[1])?;
    if head[2] == Value::Null {
        let row = decode_row(body, 4 + 2 * n)?;
        let column = |c: &[Value]| {
            Ok(ColumnDef {
                name: text(&c[0])?,
                ty: DataType::parse(&text(&c[1])?).ok_or_else(bad)?,
            })
        };
        let columns = row[4..].chunks(2).map(column).collect::<Result<_>>()?;
        Ok((file, Entry::Table(TableDef { name, columns, file })))
    } else {
        let columns = decode_row(body, 4 + n)?[4..].iter().map(text).collect::<Result<_>>()?;
        Ok((file, Entry::Index(IndexDef { name, table: text(&head[2])?, columns, file })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        let mut c = Catalog::new();
        let f1 = c.allocate_file_id();
        c.add_table(TableDef {
            name: "speech".into(),
            columns: vec![
                ColumnDef::new("speechID", DataType::Integer),
                ColumnDef::new("speech_speaker", DataType::Xadt),
                ColumnDef::new("speech_parentCODE", DataType::Varchar),
            ],
            file: f1,
        })
        .unwrap();
        let f2 = c.allocate_file_id();
        c.add_index(IndexDef {
            name: "speech_pk".into(),
            table: "speech".into(),
            columns: vec!["speechID".into()],
            file: f2,
        })
        .unwrap();
        c
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let c = sample();
        assert!(c.table("SPEECH").is_some());
        assert!(c.index("Speech_PK").is_some());
        let t = c.table("speech").unwrap();
        assert_eq!(t.column_index("SPEECH_SPEAKER"), Some(1));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = sample();
        let f = c.allocate_file_id();
        assert!(c.add_table(TableDef { name: "SPEECH".into(), columns: vec![], file: f }).is_err());
    }

    #[test]
    fn index_requires_table() {
        let mut c = Catalog::new();
        let f = c.allocate_file_id();
        assert!(c
            .add_index(IndexDef {
                name: "i".into(),
                table: "nope".into(),
                columns: vec!["x".into()],
                file: f,
            })
            .is_err());
    }

    #[test]
    fn serialization_round_trips() {
        use crate::storage::buffer::BufferPool;
        use crate::tuple::encode_row;
        let dir = std::env::temp_dir().join(format!("ordb-catalog-rows-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let pool = Arc::new(BufferPool::new(16));
        pool.register_file(CATALOG_FILE, dir.join("f00000.dat")).unwrap();
        let heap = Arc::new(HeapFile::new(pool, CATALOG_FILE));
        let c = sample();
        let mut buf = Vec::new();
        let mut insert = |row: Row, xmax: u64| {
            buf.clear();
            encode_row(&row, &mut buf);
            let rid = heap.insert(&buf, 2).unwrap();
            if xmax != 0 {
                heap.try_claim_xmax(rid, xmax).unwrap();
            }
        };
        // The index row first: reading puts tables in before indexes.
        insert(index_row(c.index("speech_pk").unwrap()), 0);
        insert(table_row(c.table("speech").unwrap()), 0);
        // A dropped table the filter below rejects.
        let gone = TableDef { name: "gone".into(), columns: vec![], file: 7 };
        insert(table_row(&gone), 3);

        let mut back = Catalog::read(heap, |_, xmax| xmax == 0).unwrap();
        assert_eq!(back.table_count(), 1);
        let t = back.table("speech").unwrap();
        assert_eq!(t.columns, c.table("speech").unwrap().columns);
        assert_eq!(t.columns[1].ty, DataType::Xadt);
        let i = back.index("speech_pk").unwrap();
        assert_eq!(i.columns, vec!["speechID".to_string()]);
        assert_eq!(back.indexes_of("SPEECH").len(), 1);
        assert!(back.row_of(t.file).is_some() && back.row_of(7).is_none());
        // File ids resume past the highest live one.
        assert_eq!(back.allocate_file_id(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn indexes_of_unknown_table_is_empty() {
        let c = sample();
        assert!(c.indexes_of("other").is_empty());
    }
}
