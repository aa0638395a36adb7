//! Shard layouts: one logical row space over independently-owned shards.
//!
//! A [`ShardedTable`] is a list of schema-identical [`Table`]s whose rows
//! concatenate, in shard order, into one logical table. It is a *layout
//! constructor*: moving it into a [`ShardSet`](crate::reader::ShardSet)
//! (`ShardSet::from(sharded)`) wraps every shard in an in-process reader,
//! and every pass in the workspace runs over that set's
//! [`RowSpace`](crate::reader::RowSpace). A pass treats a shard as a
//! *coarser partition*: work runs per shard (and per fixed-size partition
//! within each shard), and partials merge in **fixed shard order, then
//! partition order** — the same ordered merge discipline the execution
//! layer uses for partitions, lifted one level. The contract that falls out
//! is the one the rest of the stack relies on:
//!
//! > Every pass over a sharded layout is **byte-identical** to the same
//! > pass over the concatenated single table, for any shard layout
//! > (uneven or empty shards included) and any thread count.
//!
//! Integer passes (group-index interning, predicate bitmaps) get this from
//! ordered merges alone. Float passes (statistics, exact aggregation) get
//! it by anchoring their partition boundaries to the *global* row space
//! (see [`RowSpace::segments`](crate::reader::RowSpace::segments)): a
//! partial is always a whole global partition, assembled from the shard
//! segments that cover it, so the accumulation chain never depends on where
//! shard boundaries fall.
//!
//! A shard owns its column storage outright — nothing is shared with its
//! siblings — so a remote shard is just one whose answers arrive over the
//! wire.
//!
//! The contract, demonstrated (note the *uneven* split and the exact
//! float equality):
//!
//! ```
//! use cvopt_table::{sql, DataType, ShardSet, ShardedTable, TableBuilder, Value};
//!
//! let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
//! for i in 0..1000u32 {
//!     let g = ["a", "b", "c"][(i % 3) as usize];
//!     b.push_row(&[Value::str(g), Value::Float64((i as f64 * 0.7).sin())]).unwrap();
//! }
//! let table = b.finish();
//! let sharded = ShardSet::from(ShardedTable::from_tables(vec![
//!     table.take(&(0..137).collect::<Vec<_>>()),      // uneven...
//!     table.take(&(137..137).collect::<Vec<_>>()),    // ...empty...
//!     table.take(&(137..1000).collect::<Vec<_>>()),   // ...and the rest
//! ]).unwrap());
//!
//! let stmt = "SELECT g, AVG(x), SUM(x) FROM t GROUP BY g";
//! let single = sql::run(&table, stmt).unwrap();
//! let scatter = sql::run(&sharded, stmt).unwrap();
//! assert_eq!(single[0].keys, scatter[0].keys);
//! assert_eq!(single[0].values, scatter[0].values); // exact f64 equality
//! ```

use crate::error::TableError;
use crate::exec::RowRange;
use crate::table::Table;
use crate::Result;

/// One contiguous piece of a shard covering part of a global row range.
///
/// Produced by [`RowSpace::segments`](crate::reader::RowSpace::segments): a
/// global range is covered by one segment per overlapped shard, in shard
/// order, so `global_start` values are ascending and the segments
/// concatenate back into the range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSegment {
    /// Index of the shard the rows live in.
    pub shard: usize,
    /// Shard-local rows covered, as a half-open range.
    pub local: RowRange,
    /// Global row id of `local.start`.
    pub global_start: usize,
}

impl ShardSegment {
    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.local.len()
    }

    /// Whether the segment covers no rows.
    pub fn is_empty(&self) -> bool {
        self.local.is_empty()
    }
}

/// A table split into independently-owned shards with a single logical row
/// space (shard 0's rows first, then shard 1's, …).
#[derive(Debug, Clone)]
pub struct ShardedTable {
    shards: Vec<Table>,
}

impl ShardedTable {
    /// Assemble a sharded table from schema-identical shards (empty shards
    /// allowed; at least one shard required so the schema is defined).
    pub fn from_tables(shards: Vec<Table>) -> Result<ShardedTable> {
        let Some(first) = shards.first() else {
            return Err(TableError::invalid("a sharded table needs at least one shard"));
        };
        for (s, shard) in shards.iter().enumerate().skip(1) {
            if shard.schema() != first.schema() {
                return Err(TableError::invalid(format!(
                    "shard {s} schema differs from shard 0's"
                )));
            }
        }
        Ok(ShardedTable { shards })
    }

    /// Split `table` into `num_shards` contiguous shards of near-equal row
    /// counts (the first `n % num_shards` shards get one extra row). Row
    /// order is preserved: concatenating the shards reproduces `table`.
    pub fn split(table: &Table, num_shards: usize) -> Result<ShardedTable> {
        if num_shards == 0 {
            return Err(TableError::invalid("cannot split a table into 0 shards"));
        }
        let n = table.num_rows();
        let base = n / num_shards;
        let extra = n % num_shards;
        let mut shards = Vec::with_capacity(num_shards);
        let mut start = 0usize;
        for s in 0..num_shards {
            let len = base + usize::from(s < extra);
            let rows: Vec<usize> = (start..start + len).collect();
            shards.push(table.take(&rows));
            start += len;
        }
        Self::from_tables(shards)
    }

    /// All shards in order.
    pub fn shards(&self) -> &[Table] {
        &self.shards
    }

    /// Consume the layout, yielding its shards in order.
    pub(crate) fn into_shards(self) -> Vec<Table> {
        self.shards
    }

    /// Per-shard row counts, in shard order (the shard *layout*; folded
    /// into engine fingerprints so a re-layout is a different cache key).
    pub fn shard_rows(&self) -> Vec<usize> {
        self.shards.iter().map(Table::num_rows).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::types::{DataType, Value};
    use proptest::prelude::*;

    fn table(n: usize) -> Table {
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        for i in 0..n {
            b.push_row(&[Value::str(format!("g{}", i % 7)), Value::Float64(i as f64 * 0.5)])
                .unwrap();
        }
        b.finish()
    }

    /// Every row of every shard, in shard order.
    fn concatenated(st: &ShardedTable) -> Vec<Vec<Value>> {
        st.shards().iter().flat_map(|s| (0..s.num_rows()).map(|r| s.row(r))).collect()
    }

    #[test]
    fn split_balances_and_preserves_order() {
        let t = table(103);
        let st = ShardedTable::split(&t, 4).unwrap();
        assert_eq!(st.shards().len(), 4);
        assert_eq!(st.shard_rows(), vec![26, 26, 26, 25]);
        let round = concatenated(&st);
        assert_eq!(round.len(), 103);
        for (row, values) in round.iter().enumerate() {
            assert_eq!(values, &t.row(row));
        }
    }

    #[test]
    fn split_with_more_shards_than_rows_leaves_empty_shards() {
        let t = table(3);
        let st = ShardedTable::split(&t, 5).unwrap();
        assert_eq!(st.shard_rows(), vec![1, 1, 1, 0, 0]);
        assert!(ShardedTable::split(&t, 0).is_err());
    }

    #[test]
    fn from_tables_rejects_schema_mismatch_and_emptiness() {
        let a = table(5);
        let mut b = TableBuilder::new(&[("other", DataType::Int64)]);
        b.push_row(&[Value::Int64(1)]).unwrap();
        let err = ShardedTable::from_tables(vec![a, b.finish()]).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
        assert!(ShardedTable::from_tables(vec![]).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Splitting into k shards round-trips: concatenation reproduces
        /// the table row for row, for any k (more shards than rows ⇒ empty
        /// shards).
        #[test]
        fn split_round_trips(n in 0usize..200, k in 1usize..=5) {
            let t = table(n);
            let st = ShardedTable::split(&t, k).unwrap();
            prop_assert_eq!(st.shards().len(), k);
            let round = concatenated(&st);
            prop_assert_eq!(round.len(), n);
            for (row, values) in round.iter().enumerate() {
                prop_assert_eq!(values, &t.row(row));
            }
        }
    }
}
