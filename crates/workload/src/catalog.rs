//! Table and column metadata with basic statistics.
//!
//! The default (non-learned) cardinality estimator in the engine crate uses
//! these statistics — row counts, distinct-value counts and min/max ranges —
//! exactly the inputs a classical optimizer has before any learning.

use crate::plan::LogicalPlan;
use crate::signature::Fnv1a;
use crate::{Result, WorkloadError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Statistics for one column. Values are modelled as integers drawn
/// uniformly from `[min, max]` with `distinct` distinct values; the *true*
/// data distribution used by the execution simulator may be skewed, which
/// is precisely what makes the default estimator err and learned models
/// valuable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnMeta {
    /// Column name.
    pub name: String,
    /// Number of distinct values.
    pub distinct: u64,
    /// Minimum value.
    pub min: i64,
    /// Maximum value.
    pub max: i64,
    /// Skew exponent of the true value distribution (0 = uniform; larger
    /// values concentrate mass on small keys, Zipf-style).
    pub skew: f64,
}

impl ColumnMeta {
    /// Creates a uniform column.
    pub fn uniform(name: &str, distinct: u64, min: i64, max: i64) -> Self {
        Self {
            name: name.to_string(),
            distinct,
            min,
            max,
            skew: 0.0,
        }
    }

    /// Creates a skewed column.
    pub fn skewed(name: &str, distinct: u64, min: i64, max: i64, skew: f64) -> Self {
        Self {
            name: name.to_string(),
            distinct,
            min,
            max,
            skew,
        }
    }
}

/// Metadata for one table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableMeta {
    /// Table name.
    pub name: String,
    /// Row count.
    pub rows: u64,
    /// Column metadata, indexed by ordinal.
    pub columns: Vec<ColumnMeta>,
}

impl TableMeta {
    /// Column metadata by ordinal, with a descriptive error.
    pub fn column(&self, index: usize) -> Result<&ColumnMeta> {
        self.columns
            .get(index)
            .ok_or_else(|| WorkloadError::UnknownColumn {
                table: self.name.clone(),
                column: index,
            })
    }
}

/// A catalog of tables, looked up by name.
///
/// Table names resolve through a hash index that is built on the first
/// lookup and kept in step by [`Catalog::add_table`]. It stores table
/// positions, not names, and finds the first table of a name, as a
/// front-to-back scan would. The index is not part of the catalog's value:
/// `Debug`, `==` and the serde form see only the tables and views, whether
/// or not a lookup has built it yet. Views are few (only reuse and
/// pushdown register them) and are still found by a scan.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Catalog {
    tables: Vec<TableMeta>,
    /// Definitions of tables that materialize a logical plan (views,
    /// pushed subexpressions). Signature hashing expands these scans to
    /// the defining plan so "true" cardinalities stay invariant under
    /// semantics-preserving rewrites.
    views: Vec<(String, LogicalPlan)>,
    /// Name index over `tables`. Skipped by serde, so a deserialized
    /// catalog rebuilds it on its first lookup.
    #[serde(skip)]
    index: OnceLock<NameIndex>,
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Catalog")
            .field("tables", &self.tables)
            .field("views", &self.views)
            .finish()
    }
}

impl PartialEq for Catalog {
    fn eq(&self, other: &Self) -> bool {
        self.tables == other.tables && self.views == other.views
    }
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The name index, built on first use.
    fn index(&self) -> &NameIndex {
        self.index.get_or_init(|| NameIndex::build(&self.tables))
    }

    /// Adds a table, replacing any previous table with the same name.
    pub fn add_table(&mut self, table: TableMeta) {
        // Move the index out (building it if needed) so it can be updated
        // while `tables` is borrowed mutably, then put it back.
        let mut index = self
            .index
            .take()
            .unwrap_or_else(|| NameIndex::build(&self.tables));
        match index.find(&self.tables, &table.name) {
            Some(pos) => self.tables[pos] = table,
            None => {
                self.tables.push(table);
                index.insert(&self.tables, self.tables.len() - 1);
            }
        }
        self.index = OnceLock::from(index);
    }

    /// Looks a table up by name.
    pub fn table(&self, name: &str) -> Result<&TableMeta> {
        self.index()
            .find(&self.tables, name)
            .map(|pos| &self.tables[pos])
            .ok_or_else(|| WorkloadError::UnknownTable(name.to_string()))
    }

    /// All tables in insertion order.
    pub fn tables(&self) -> &[TableMeta] {
        &self.tables
    }

    /// Records that `name` materializes `plan` (replacing any previous
    /// definition under the same name). Call alongside `add_table` when
    /// registering a view or pushed-subexpression table.
    pub fn register_view(&mut self, name: &str, plan: LogicalPlan) {
        if let Some(existing) = self.views.iter_mut().find(|(n, _)| n == name) {
            existing.1 = plan;
        } else {
            self.views.push((name.to_string(), plan));
        }
    }

    /// The plan materialized by `name`, when it was registered as a view.
    pub fn view_definition(&self, name: &str) -> Option<&LogicalPlan> {
        self.views.iter().find(|(n, _)| n == name).map(|(_, p)| p)
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the catalog has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The catalog used across the workspace's experiments: a star-schema
    /// flavoured set of fact and dimension tables with a mix of uniform and
    /// skewed columns, loosely shaped like a telemetry warehouse.
    pub fn standard() -> Self {
        let mut catalog = Self::new();
        catalog.add_table(TableMeta {
            name: "events".into(),
            rows: 50_000_000,
            columns: vec![
                ColumnMeta::skewed("user_id", 1_000_000, 0, 999_999, 1.1),
                ColumnMeta::uniform("event_type", 50, 0, 49),
                ColumnMeta::uniform("ts_hour", 720, 0, 719),
                ColumnMeta::skewed("region_id", 60, 0, 59, 0.8),
            ],
        });
        catalog.add_table(TableMeta {
            name: "sessions".into(),
            rows: 8_000_000,
            columns: vec![
                ColumnMeta::skewed("user_id", 1_000_000, 0, 999_999, 1.1),
                ColumnMeta::uniform("duration_s", 10_000, 0, 9_999),
                ColumnMeta::uniform("ts_hour", 720, 0, 719),
            ],
        });
        catalog.add_table(TableMeta {
            name: "users".into(),
            rows: 1_000_000,
            columns: vec![
                ColumnMeta::uniform("user_id", 1_000_000, 0, 999_999),
                ColumnMeta::uniform("segment", 8, 0, 7),
                ColumnMeta::skewed("country_id", 120, 0, 119, 0.9),
            ],
        });
        catalog.add_table(TableMeta {
            name: "regions".into(),
            rows: 60,
            columns: vec![
                ColumnMeta::uniform("region_id", 60, 0, 59),
                ColumnMeta::uniform("tier", 3, 0, 2),
            ],
        });
        catalog.add_table(TableMeta {
            name: "telemetry".into(),
            rows: 200_000_000,
            columns: vec![
                ColumnMeta::skewed("machine_id", 100_000, 0, 99_999, 1.2),
                ColumnMeta::uniform("counter_id", 200, 0, 199),
                ColumnMeta::uniform("ts_hour", 720, 0, 719),
                ColumnMeta::uniform("value_bucket", 1000, 0, 999),
            ],
        });
        catalog
    }
}

/// Marks a free slot.
const EMPTY: u32 = u32::MAX;

/// An open-addressing (linear-probing) hash index from a table name to the
/// position of the first table carrying it, over a table vector the caller
/// owns and passes to every call.
///
/// Invariants:
///
/// * Slots hold positions only, never names: four bytes per slot, a
///   power-of-two slot count of at least 8, and the load kept at or below
///   three quarters. A probe compares the name of the table at the slot's
///   position.
/// * Each distinct name in the vector has exactly one slot, holding its
///   *first* position — what a front-to-back linear scan finds, even when a
///   deserialized vector carries duplicates.
/// * Tables are only ever appended or replaced in place under the same
///   name, so positions stay valid and slots are never freed (no
///   tombstones). Replacing a table leaves the index unchanged.
#[derive(Clone)]
struct NameIndex {
    slots: Vec<u32>,
    len: usize,
}

impl NameIndex {
    /// Indexes `tables`, keeping the first position of each name.
    fn build(tables: &[TableMeta]) -> Self {
        let mut index = Self {
            slots: vec![EMPTY; (tables.len() * 4 / 3 + 1).next_power_of_two().max(8)],
            len: 0,
        };
        for (pos, table) in tables.iter().enumerate() {
            if index.find(tables, &table.name).is_none() {
                index.insert(tables, pos);
            }
        }
        index
    }

    fn home(&self, name: &str) -> usize {
        let mut h = Fnv1a::new();
        h.write(name.as_bytes());
        let h = h.finish();
        (h ^ (h >> 32)) as usize & (self.slots.len() - 1)
    }

    /// Position of the first table named `name`.
    fn find(&self, tables: &[TableMeta], name: &str) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(name);
        loop {
            match self.slots[slot] {
                EMPTY => return None,
                pos if tables[pos as usize].name == name => return Some(pos as usize),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Indexes `tables[pos]`, whose name the index must not hold yet.
    fn insert(&mut self, tables: &[TableMeta], pos: usize) {
        if 4 * (self.len + 1) > 3 * self.slots.len() {
            let grown = vec![EMPTY; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            self.len = 0;
            for p in old.into_iter().filter(|&p| p != EMPTY) {
                self.place(tables, p);
            }
        }
        // A catalog of 2^32 - 1 tables would need hundreds of GiB of
        // metadata first; the bound is documented rather than handled.
        let pos = u32::try_from(pos)
            .ok()
            .filter(|&p| p != EMPTY)
            .expect("catalog holds fewer than 2^32 - 1 tables");
        self.place(tables, pos);
    }

    fn place(&mut self, tables: &[TableMeta], pos: u32) {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(&tables[pos as usize].name);
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = pos;
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_contents() {
        let c = Catalog::standard();
        assert_eq!(c.len(), 5);
        assert!(!c.is_empty());
        let events = c.table("events").unwrap();
        assert_eq!(events.rows, 50_000_000);
        assert_eq!(events.columns.len(), 4);
        assert_eq!(events.column(0).unwrap().name, "user_id");
    }

    #[test]
    fn unknown_lookups_error() {
        let c = Catalog::standard();
        assert!(matches!(
            c.table("nope"),
            Err(WorkloadError::UnknownTable(_))
        ));
        let events = c.table("events").unwrap();
        assert!(matches!(
            events.column(99),
            Err(WorkloadError::UnknownColumn { column: 99, .. })
        ));
    }

    #[test]
    fn add_table_replaces_same_name() {
        let mut c = Catalog::new();
        c.add_table(TableMeta {
            name: "t".into(),
            rows: 1,
            columns: vec![],
        });
        c.add_table(TableMeta {
            name: "t".into(),
            rows: 2,
            columns: vec![],
        });
        assert_eq!(c.len(), 1);
        assert_eq!(c.table("t").unwrap().rows, 2);
    }
}
