//! RemoteShard: the shard-pass surface over a network peer.
//!
//! A handle reads: it registers its shard once, then asks the server for
//! walks, picks and straddling fragments. The rows behind it change only by
//! registering the table again with its new rows.

use std::borrow::Cow;
use std::sync::Arc;

use cvopt_table::reader::{Fold, Pick, Picked, Walked};
use cvopt_table::{Result, ScalarExpr, Schema, ShardReader, Table, TableError};

use crate::client::Peer;
use crate::wire::{Request, Response};

/// One table shard living on a remote [`crate::Shardd`], addressed by key.
///
/// Implements [`ShardReader`], so a
/// [`cvopt_table::ShardSet`] can mix remote and local shards freely — the
/// coordinator neither knows nor cares where a shard's rows live. Several
/// `RemoteShard`s may share one [`Peer`] (one connection per server, many
/// shards per server).
#[derive(Debug)]
pub struct RemoteShard {
    peer: Arc<Peer>,
    key: String,
    schema: Schema,
    rows: usize,
}

impl RemoteShard {
    /// Ship `table` to the peer under `key` and return a handle to it.
    ///
    /// The server echoes the registered row count; a mismatch means the
    /// table was mangled in transit and is reported as an error.
    pub fn register(peer: Arc<Peer>, key: impl Into<String>, table: &Table) -> Result<RemoteShard> {
        let key = key.into();
        let request = Request::Register { key: key.clone(), table: Cow::Borrowed(table) };
        let shard =
            RemoteShard { peer, key, schema: table.schema().clone(), rows: table.num_rows() };
        match shard.call(&request)? {
            Response::Registered { rows } if rows as usize == table.num_rows() => Ok(shard),
            Response::Registered { rows } => {
                Err(shard
                    .invalid(format_args!("registered {rows} rows, sent {}", table.num_rows())))
            }
            other => Err(shard.unexpected(&other)),
        }
    }

    fn call(&self, request: &Request) -> Result<Response> {
        self.peer.call(request).map_err(|e| self.invalid(e))
    }

    /// An error that names this shard.
    fn invalid(&self, what: impl std::fmt::Display) -> TableError {
        TableError::invalid(format!("remote shard {}: {what}", self.location()))
    }

    fn unexpected(&self, response: &Response) -> TableError {
        let kind = match response {
            Response::Registered { .. } => "Registered",
            Response::Health { .. } => "Health",
            Response::Partials { .. } => "Partials",
            Response::Rows { .. } => "Rows",
            Response::Error { .. } => "Error",
            Response::Walked { .. } => "Walked",
            Response::Picked { .. } => "Picked",
        };
        self.invalid(format_args!("unexpected {kind} response"))
    }
}

impl ShardReader for RemoteShard {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn num_rows(&self) -> usize {
        self.rows
    }

    fn location(&self) -> String {
        format!("{}/{}", self.peer.addr(), self.key)
    }

    fn walk(
        &self,
        first_row: usize,
        total_rows: usize,
        exprs: &[ScalarExpr],
        fold: &Fold,
    ) -> Result<Walked> {
        let request = Request::Walk {
            key: self.key.clone(),
            first_row: first_row as u64,
            total_rows: total_rows as u64,
            exprs: exprs.to_vec(),
            fold: fold.clone(),
        };
        match self.call(&request)? {
            Response::Walked { walked } => Ok(walked),
            other => Err(self.unexpected(&other)),
        }
    }

    fn pick(&self, exprs: &[ScalarExpr], picks: &[Pick]) -> Result<Picked> {
        let request =
            Request::Pick { key: self.key.clone(), exprs: exprs.to_vec(), picks: picks.to_vec() };
        match self.call(&request)? {
            Response::Picked { picked } => Ok(picked),
            other => Err(self.unexpected(&other)),
        }
    }

    fn take_rows(&self, rows: &[u32]) -> Result<Table> {
        let request = Request::Gather { key: self.key.clone(), rows: rows.to_vec() };
        match self.call(&request)? {
            Response::Rows { table } if table.num_rows() != rows.len() => Err(self.invalid(
                format_args!("gathered {} rows, requested {}", table.num_rows(), rows.len()),
            )),
            Response::Rows { table } if table.schema() != &self.schema => {
                Err(self.invalid("gathered rows have a different schema"))
            }
            Response::Rows { table } => Ok(table),
            other => Err(self.unexpected(&other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Shardd;
    use cvopt_table::reader::Partitions;
    use cvopt_table::{AggExpr, DataType, LocalShard, Predicate, TableBuilder, Value};

    fn table() -> Table {
        let mut b = TableBuilder::new(&[("k", DataType::Str), ("v", DataType::Float64)]);
        for (k, v) in [("a", 1.0), ("b", 2.0), ("a", 3.0), ("c", 4.0)] {
            b.push_row(&[Value::str(k), Value::Float64(v)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn remote_passes_match_local_shard() {
        let mut server = Shardd::bind("127.0.0.1:0", 2).unwrap();
        let peer = Arc::new(Peer::connect(server.addr().to_string()).unwrap());
        let remote = RemoteShard::register(Arc::clone(&peer), "t/0", &table()).unwrap();
        let local = LocalShard::new(table());

        assert_eq!(remote.num_rows(), local.num_rows());
        assert_eq!(remote.schema(), local.schema());

        let exprs = [ScalarExpr::col("k")];
        let stats = Fold::Stats { columns: vec![ScalarExpr::col("v")] };
        let pred = Predicate::cmp("v", cvopt_table::CmpOp::Gt, Value::Float64(1.5));
        let exact = Fold::Exact { predicate: Some(pred), aggregates: vec![AggExpr::avg("v")] };
        for fold in [stats, exact] {
            let walked = remote.walk(0, 4, &exprs, &fold).unwrap();
            let want = local.walk(0, 4, &exprs, &fold).unwrap();
            assert_eq!(format!("{walked:?}"), format!("{want:?}"));
            assert_eq!(walked.sizes, [2, 1, 1]);
            let whole = match (&walked.partitions, &fold) {
                (Partitions::Stats(whole), Fold::Stats { .. }) => whole.len(),
                (Partitions::Exact(whole), Fold::Exact { .. }) => whole.len(),
                _ => panic!("a walk in another form than its fold's"),
            };
            assert_eq!(whole, 1);
        }
        // A shard that does not fit the row space it claims is refused.
        assert!(remote.walk(2, 4, &exprs, &Fold::Stats { columns: vec![] }).is_err());

        let picks = [Pick { key: 0, ordinals: vec![1] }, Pick { key: 2, ordinals: vec![0] }];
        let picked = remote.pick(&exprs, &picks).unwrap();
        let want = local.pick(&exprs, &picks).unwrap();
        assert_eq!((&picked.rows, &want.rows), (&vec![2, 3], &vec![2, 3]));
        assert_eq!(format!("{:?}", picked.table.row(1)), format!("{:?}", want.table.row(1)));

        let rows = [3u32, 0, 2];
        let remote_rows = remote.take_rows(&rows).unwrap();
        let local_rows = local.take_rows(&rows).unwrap();
        for r in 0..rows.len() {
            assert_eq!(format!("{:?}", remote_rows.row(r)), format!("{:?}", local_rows.row(r)));
        }

        server.shutdown();
    }

    #[test]
    fn out_of_range_gather_is_a_clean_error() {
        let mut server = Shardd::bind("127.0.0.1:0", 1).unwrap();
        let peer = Arc::new(Peer::connect(server.addr().to_string()).unwrap());
        let remote = RemoteShard::register(peer, "t", &table()).unwrap();
        assert!(remote.take_rows(&[99]).is_err());
        server.shutdown();
    }
}
