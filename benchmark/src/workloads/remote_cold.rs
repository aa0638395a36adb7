//! `remote_cold`: the OpenAQ table split across two in-process
//! `cvopt-shardd` servers; per round a fresh coordinator engine runs four
//! cold approximate and three exact statements over the remote shard set.
//! The same passes as `cold_sample` and `exact_scan`, but every pass
//! crosses the wire: the workload for plan pushdown and server-core
//! merging, and the control showing a local-kernel change diluted by wire
//! cost.

use std::sync::Arc;

use cvopt_core::Engine;
use cvopt_net::{Peer, RemoteShard, Shardd};
use cvopt_table::{ShardReader, ShardSet, ShardedTable, Table};

use super::{add_counters, counters_of, engine_for, openaq, Checked, WARMUP_ROUND};
use crate::harness::{shuffled, Recorder, Scale, Workload, BENCH_THREADS};
use crate::reference::answer_bytes;
use crate::statements::REMOTE_COLD;

#[derive(Debug)]
pub struct RemoteCold {
    pub table: Table,
    /// The same two-way split the shard servers hold, kept local.
    pub sharded: ShardedTable,
    pub set: ShardSet,
    pub peers: Vec<Arc<Peer>>,
    servers: Vec<Shardd>,
    pub statements: Vec<Checked>,
    order: Vec<usize>,
    seed: u64,
    rate: f64,
    counters: [u64; 5],
}

impl RemoteCold {
    /// A fresh coordinator over the remote shard set, seeded for `round`.
    pub fn coordinator(&self, round: u64) -> Engine {
        let mut engine = engine_for(self.seed, round, self.rate);
        engine.register("openaq", self.set.clone());
        engine
    }
}

impl Workload for RemoteCold {
    const ACCURACY_ROUNDS: u64 = 24;

    fn setup(scale: &Scale, seed: u64) -> Self {
        let table = openaq(scale);
        let sharded = ShardedTable::split(&table, BENCH_THREADS).expect("split into shards");
        let servers: Vec<Shardd> = (0..BENCH_THREADS)
            .map(|_| Shardd::bind("127.0.0.1:0", BENCH_THREADS).expect("bind a shard server"))
            .collect();
        let peers: Vec<Arc<Peer>> = servers
            .iter()
            .map(|s| Arc::new(Peer::connect(s.addr().to_string()).expect("shard server address")))
            .collect();
        let readers: Vec<Arc<dyn ShardReader>> = sharded
            .shards()
            .iter()
            .zip(&peers)
            .enumerate()
            .map(|(s, (shard, peer))| {
                let remote = RemoteShard::register(Arc::clone(peer), format!("openaq/{s}"), shard)
                    .expect("ship the shard");
                Arc::new(remote) as Arc<dyn ShardReader>
            })
            .collect();
        let set = ShardSet::new(readers).expect("shard set");
        RemoteCold {
            table,
            sharded,
            set,
            peers,
            servers,
            statements: Vec::new(),
            order: Vec::new(),
            seed,
            rate: scale.sample_rate,
            counters: [0; 5],
        }
    }

    fn prepare(&mut self, warm: &mut Recorder) {
        self.statements = REMOTE_COLD.iter().map(|s| Checked::new(*s, &self.table)).collect();
        self.order = shuffled(REMOTE_COLD.len(), self.seed);

        // Where the rows live may not show in the answer: one table, the
        // local two-way split and the remote shard set, same seed.
        let mut single = engine_for(self.seed, WARMUP_ROUND, self.rate);
        single.register("openaq", self.table.clone());
        let mut local = engine_for(self.seed, WARMUP_ROUND, self.rate);
        local.register("openaq", self.sharded.clone());
        let remote = self.coordinator(WARMUP_ROUND);
        for stmt in &self.statements {
            let bytes = [&single, &local, &remote]
                .map(|e| e.query(stmt.stmt.sql, stmt.stmt.mode).map(|a| answer_bytes(&a)));
            let same = matches!(&bytes, [Ok(a), Ok(b), Ok(c)] if a == b && b == c);
            warm.invariant("remote_cold.layout_identity", same, || {
                format!("{} differs between single, sharded and remote registrations", stmt.stmt.id)
            });
        }
    }

    fn round(&mut self, round: u64, rec: &mut Recorder) {
        let engine = rec.untimed(|| self.coordinator(round));
        for &i in &self.order {
            let stmt = &self.statements[i];
            rec.call(
                "core.engine.query",
                i,
                true,
                || engine.query(stmt.stmt.sql, stmt.stmt.mode),
                |answer| stmt.judge(answer),
            );
        }
        add_counters(&mut self.counters, counters_of(&engine));
    }

    fn engine_counters(&self) -> [u64; 5] {
        self.counters
    }
}

impl Drop for RemoteCold {
    fn drop(&mut self) {
        for server in &mut self.servers {
            server.shutdown();
        }
    }
}
