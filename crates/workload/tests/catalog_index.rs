//! The catalog's name index against a linear-scan reference.
//!
//! `Catalog` resolves table names through a hash index built on first
//! lookup and kept in step by `add_table`; views are still scanned. These
//! properties replay random `add_table` / `register_view` sequences over a
//! five-name alphabet (so entries get replaced, and tables and views share
//! names) with lookups interleaved,
//! and check every answer against a plain vector scanned front to back —
//! the catalog's behaviour before it had an index. They also check that
//! the index survives cloning and serde round trips, and that it never
//! shows in `Debug`, `==` or the JSON form.

use adas_workload::catalog::{Catalog, ColumnMeta, TableMeta};
use adas_workload::plan::{CmpOp, LogicalPlan, Predicate};
use proptest::prelude::*;

const NAMES: [&str; 5] = ["t0", "t1", "t2", "view_a", "view_b"];

/// One step of a sequence: `(kind, name, value)`. Kinds 0 and 1 add a
/// table or register a view named `NAMES[name]` (replacing any earlier
/// entry of that name), 2 and 3 look one up.
type Op = (u8, usize, i64);

fn ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..4, 0usize..NAMES.len(), 0i64..1000), 0..max_len)
}

fn table(name: &str, rows: i64) -> TableMeta {
    TableMeta {
        name: name.to_string(),
        rows: rows as u64,
        columns: vec![ColumnMeta::uniform("key", 100, 0, 99)],
    }
}

fn view(value: i64) -> LogicalPlan {
    LogicalPlan::scan("t0").filter(Predicate::single(0, CmpOp::Le, value))
}

/// The catalog as it behaved before the index: vectors scanned front to
/// back, replacing the first entry of a name.
#[derive(Debug, Clone, Default)]
struct Reference {
    tables: Vec<TableMeta>,
    views: Vec<(String, LogicalPlan)>,
}

impl Reference {
    fn add_table(&mut self, table: TableMeta) {
        match self.tables.iter_mut().find(|t| t.name == table.name) {
            Some(existing) => *existing = table,
            None => self.tables.push(table),
        }
    }

    fn register_view(&mut self, name: &str, plan: LogicalPlan) {
        match self.views.iter_mut().find(|(n, _)| n == name) {
            Some(existing) => existing.1 = plan,
            None => self.views.push((name.to_string(), plan)),
        }
    }

    fn table(&self, name: &str) -> Option<&TableMeta> {
        self.tables.iter().find(|t| t.name == name)
    }

    fn view_definition(&self, name: &str) -> Option<&LogicalPlan> {
        self.views.iter().find(|(n, _)| n == name).map(|(_, p)| p)
    }
}

/// Applies `ops` to both, checking every interleaved lookup.
fn apply(
    catalog: &mut Catalog,
    reference: &mut Reference,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    for &(kind, name, value) in ops {
        let name = NAMES[name];
        match kind {
            0 => {
                catalog.add_table(table(name, value));
                reference.add_table(table(name, value));
            }
            1 => {
                catalog.register_view(name, view(value));
                reference.register_view(name, view(value));
            }
            2 => prop_assert_eq!(catalog.table(name).ok(), reference.table(name)),
            _ => prop_assert_eq!(
                catalog.view_definition(name),
                reference.view_definition(name)
            ),
        }
    }
    Ok(())
}

/// Every name of the alphabet resolves as the reference resolves it, and
/// the table list matches entry for entry.
fn agrees(catalog: &Catalog, reference: &Reference) -> Result<(), TestCaseError> {
    for name in NAMES {
        prop_assert_eq!(catalog.table(name).ok(), reference.table(name));
        prop_assert_eq!(
            catalog.view_definition(name),
            reference.view_definition(name)
        );
    }
    prop_assert_eq!(catalog.tables(), &reference.tables[..]);
    prop_assert_eq!(catalog.len(), reference.tables.len());
    Ok(())
}

fn build(ops: &[Op]) -> Result<(Catalog, Reference), TestCaseError> {
    let mut catalog = Catalog::new();
    let mut reference = Reference::default();
    apply(&mut catalog, &mut reference, ops)?;
    Ok((catalog, reference))
}

/// The catalog's fields with derived impls: what `Debug` and the JSON form
/// looked like before the index existed. Named `Catalog` so the derived
/// `Debug` prints the same struct name.
mod before {
    use adas_workload::catalog::TableMeta;
    use adas_workload::plan::LogicalPlan;
    use serde::Serialize;

    #[derive(Debug, Serialize)]
    pub struct Catalog {
        pub tables: Vec<TableMeta>,
        pub views: Vec<(String, LogicalPlan)>,
    }
}

fn before(reference: &Reference) -> before::Catalog {
    before::Catalog {
        tables: reference.tables.clone(),
        views: reference.views.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random add/register sequences with interleaved lookups: every
    /// lookup, and the final state, matches the linear scan.
    #[test]
    fn index_lookups_agree_with_linear_scan(ops in ops(60)) {
        let (catalog, reference) = build(&ops)?;
        agrees(&catalog, &reference)?;
    }

    /// A clone carries a working index of its own: mutating the clone
    /// leaves the original's answers unchanged, and both stay correct.
    #[test]
    fn index_survives_clone_then_mutate(first in ops(30), then in ops(30)) {
        let (mut original, mut original_ref) = build(&first)?;
        let mut copy = original.clone();
        let mut copy_ref = original_ref.clone();
        apply(&mut copy, &mut copy_ref, &then)?;
        agrees(&copy, &copy_ref)?;
        agrees(&original, &original_ref)?;
        // And the other way round: the original mutates independently.
        apply(&mut original, &mut original_ref, &then)?;
        agrees(&original, &original_ref)?;
    }

    /// A deserialized catalog rebuilds its index on first use, answers
    /// like the reference, and keeps answering correctly as it mutates.
    #[test]
    fn index_rebuilt_after_serde_round_trip(first in ops(30), then in ops(30)) {
        let (catalog, mut reference) = build(&first)?;
        let json = serde_json::to_string(&catalog).expect("serializes");
        let mut back: Catalog = serde_json::from_str(&json).expect("deserializes");
        prop_assert_eq!(&back, &catalog);
        agrees(&back, &reference)?;
        apply(&mut back, &mut reference, &then)?;
        agrees(&back, &reference)?;
    }

    /// Duplicate names can only enter through deserialization; lookups
    /// and replacement still hit the first entry, as the scan did.
    #[test]
    fn duplicates_from_serde_resolve_to_first_entry(
        first in ops(30),
        dupes in proptest::collection::vec((0usize..NAMES.len(), 0i64..1000), 1..8),
        then in ops(30),
    ) {
        let (_, mut reference) = build(&first)?;
        for &(name, value) in &dupes {
            reference.tables.push(table(NAMES[name], value));
            reference.views.push((NAMES[name].to_string(), view(value)));
        }
        let json = serde_json::to_string(&before(&reference)).expect("serializes");
        let mut catalog: Catalog = serde_json::from_str(&json).expect("deserializes");
        agrees(&catalog, &reference)?;
        apply(&mut catalog, &mut reference, &then)?;
        agrees(&catalog, &reference)?;
    }

    /// `Debug` (plain and pretty), `==` and JSON are identical whether or
    /// not a lookup has built the index, and identical to the derived
    /// forms of the bare fields.
    #[test]
    fn index_is_invisible_to_debug_eq_and_json(ops in ops(40)) {
        let (_, reference) = build(&ops)?;
        let json = serde_json::to_string(&before(&reference)).expect("serializes");
        let cold: Catalog = serde_json::from_str(&json).expect("deserializes");
        let warm: Catalog = serde_json::from_str(&json).expect("deserializes");
        for name in NAMES {
            let _ = warm.table(name);
            let _ = warm.view_definition(name);
        }
        let bare = before(&reference);
        for catalog in [&cold, &warm] {
            prop_assert_eq!(format!("{catalog:?}"), format!("{bare:?}"));
            prop_assert_eq!(format!("{catalog:#?}"), format!("{bare:#?}"));
            prop_assert_eq!(serde_json::to_string(catalog).expect("serializes"), json.clone());
        }
        prop_assert_eq!(&cold, &warm);
        prop_assert_eq!(cold.clone(), warm.clone());
    }
}

/// A catalog of thousands of tables — the generator's ad-hoc scale —
/// resolves every name to its own entry, through several index growths.
#[test]
fn index_resolves_thousands_of_tables() {
    let mut catalog = Catalog::standard();
    for i in 0..5000 {
        catalog.add_table(table(&format!("adhoc_{i}"), i));
    }
    for i in (0..5000).step_by(7) {
        let name = format!("adhoc_{i}");
        assert_eq!(catalog.table(&name).expect("present").rows, i as u64);
    }
    assert_eq!(catalog.table("events").expect("standard").rows, 50_000_000);
    assert!(catalog.table("adhoc_5000").is_err());
    assert_eq!(catalog.len(), 5005);
}
