//! The reference the strata pass is pinned against, kept out of the
//! library: one sequential stable counting sort of a group index's ids, and
//! the statistics pass as it read rows before the strata pass existed —
//! per global partition, a counting sort of the partition's ids, each
//! stratum's values gathered in row order through the lane-merge slice
//! kernel into a whole `[stratum][column]` table, the tables merged cell by
//! cell in partition order.

use cvopt_table::agg::AggState;
use cvopt_table::exec::partition_rows;
use cvopt_table::reader::{Fold, Pick, Picked, Walked};
use cvopt_table::{GroupIndex, LocalShard, ScalarExpr, Schema, ShardReader, Table};

/// Stratum `c`'s rows of `ids` (one stratum id per row), ascending: a
/// stable counting sort.
pub fn counting_sort(ids: &[u32], num_strata: usize) -> Vec<Vec<u32>> {
    let mut offsets = vec![0usize; num_strata + 1];
    for &c in ids {
        offsets[c as usize + 1] += 1;
    }
    for c in 0..num_strata {
        offsets[c + 1] += offsets[c];
    }
    let mut sorted = vec![0u32; ids.len()];
    let mut cursor = offsets.clone();
    for (row, &c) in ids.iter().enumerate() {
        sorted[cursor[c as usize]] = row as u32;
        cursor[c as usize] += 1;
    }
    (0..num_strata).map(|c| sorted[offsets[c]..offsets[c + 1]].to_vec()).collect()
}

/// `states[stratum][column]` over `table` stratified by `index`: what the
/// statistics pass collects.
pub fn statistics(table: &Table, index: &GroupIndex, columns: &[ScalarExpr]) -> Vec<Vec<AggState>> {
    let bound: Vec<_> = columns.iter().map(|c| c.bind(table).expect("column binds")).collect();
    let num_strata = index.num_groups();
    let mut merged = vec![vec![AggState::default(); columns.len()]; num_strata];
    for range in partition_rows(table.num_rows()) {
        let runs = counting_sort(&index.row_groups()[range.start..range.end], num_strata);
        for (states, run) in merged.iter_mut().zip(&runs) {
            for (state, expr) in states.iter_mut().zip(&bound) {
                let values: Vec<f64> =
                    run.iter().filter_map(|&r| expr.f64_at(range.start + r as usize)).collect();
                let mut partial = AggState::default();
                partial.update_slice(&values);
                state.merge(&partial);
            }
        }
    }
    merged
}

/// Every field of `state`, floats as bits: what "bit-identical" compares.
pub fn bits(state: &AggState) -> [u64; 6] {
    [
        state.count,
        state.sum.to_bits(),
        state.mean.to_bits(),
        state.m2.to_bits(),
        state.min.to_bits(),
        state.max.to_bits(),
    ]
}

/// A reader that answers only through the reader surface — `walk`, `pick`
/// and `take_rows`, each delegated to [`LocalShard`]: what a shard in
/// another process looks like to the coordinator, minus the wire.
#[derive(Debug)]
pub struct Opaque(LocalShard);

impl Opaque {
    /// `table`, behind the reader surface.
    pub fn of(table: Table) -> Opaque {
        Opaque(LocalShard::new(table))
    }
}

impl ShardReader for Opaque {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }
    fn num_rows(&self) -> usize {
        self.0.num_rows()
    }
    fn location(&self) -> String {
        "opaque".to_string()
    }
    fn walk(
        &self,
        first_row: usize,
        total_rows: usize,
        exprs: &[ScalarExpr],
        fold: &Fold,
    ) -> cvopt_table::Result<Walked> {
        self.0.walk(first_row, total_rows, exprs, fold)
    }
    fn pick(&self, exprs: &[ScalarExpr], picks: &[Pick]) -> cvopt_table::Result<Picked> {
        self.0.pick(exprs, picks)
    }
    fn take_rows(&self, rows: &[u32]) -> cvopt_table::Result<Table> {
        self.0.take_rows(rows)
    }
}
