//! `serve_cached`: an in-process `cvopt-serve` server over one durable
//! sample; two keep-alive clients POST five approximate `/query`
//! statements. Zero table scans — SQL parse, plan and reuse lookup, the
//! estimate over the sample, JSON, HTTP and the socket own all the time.
//! A serving-path fix shows here; a scan-kernel change must show nothing.

use cvopt_core::{budget_for_rows, Engine, QueryMode, QuerySpec, SampleHandle, SamplingProblem};
use cvopt_serve::{Client, Json, Server, ServerConfig};
use cvopt_table::Table;

use super::{engine_for, openaq, Checked};
use crate::harness::{shuffled, Recorder, Scale, Workload, BENCH_THREADS};
use crate::statements::{DURABLE_AGGREGATES, DURABLE_GROUP_BY, SERVE_CACHED};

/// The `/query` body of a statement.
pub fn query_body(sql: &str) -> String {
    Json::object(vec![("sql", Json::string(sql)), ("mode", Json::string("approximate"))])
        .to_string()
}

#[derive(Debug)]
pub struct ServeCached {
    pub server: Server,
    /// The durable sample every statement is answered from.
    pub durable: SampleHandle,
    clients: Vec<Client>,
    pub statements: Vec<Checked>,
    /// Per statement: the request body and the response body it must get.
    pub bodies: Vec<(String, String)>,
    order: Vec<usize>,
    seed: u64,
    passes_after_warmup: Option<u64>,
}

impl ServeCached {
    pub fn with_engine<T>(&self, f: impl FnOnce(&Engine) -> T) -> T {
        self.server.engine().with_engine(f)
    }

    fn openaq_rows(&self) -> Table {
        self.with_engine(|e| e.table("openaq").expect("openaq is registered").clone())
    }
}

impl Workload for ServeCached {
    /// One durable sample answers every round, so one scoring suffices.
    const ACCURACY_ROUNDS: u64 = 1;

    fn setup(scale: &Scale, seed: u64) -> Self {
        // The rate makes every statement's derived budget equal the durable
        // sample's, which an exact-fingerprint hit requires.
        let mut engine = engine_for(seed, 0, scale.durable_rate);
        engine.register("openaq", openaq(scale));
        let mut spec = QuerySpec::group_by(&DURABLE_GROUP_BY);
        for column in DURABLE_AGGREGATES {
            spec = spec.aggregate(column);
        }
        let budget = budget_for_rows(scale.openaq_rows, scale.durable_rate).expect("valid rate");
        let durable = engine
            .prepare("openaq", SamplingProblem::single(spec, budget))
            .expect("durable sample");
        // Workers and engine threads are pinned; the defaults follow the
        // core count.
        let config = ServerConfig {
            workers: BENCH_THREADS,
            thread_budget: BENCH_THREADS,
            ..ServerConfig::default()
        };
        let server = Server::start(engine, config).expect("start the server");
        let clients = (0..BENCH_THREADS).map(|_| Client::new(server.addr())).collect();
        ServeCached {
            server,
            durable,
            clients,
            statements: Vec::new(),
            bodies: Vec::new(),
            order: Vec::new(),
            seed,
            passes_after_warmup: None,
        }
    }

    fn prepare(&mut self, _warm: &mut Recorder) {
        let table = self.openaq_rows();
        self.statements = SERVE_CACHED.iter().map(|s| Checked::new(*s, &table)).collect();
        // The sample is fixed, so each statement has one right response:
        // the JSON of the in-process answer (judged in `finish`).
        self.bodies = SERVE_CACHED
            .iter()
            .map(|s| {
                let answer = self
                    .with_engine(|e| e.query(s.sql, QueryMode::Approximate))
                    .unwrap_or_else(|e| panic!("{}: {e}", s.id));
                (query_body(s.sql), cvopt_serve::api::answer_json(&answer).to_string())
            })
            .collect();
        self.order = shuffled(SERVE_CACHED.len(), self.seed);
    }

    fn round(&mut self, _round: u64, rec: &mut Recorder) {
        let (bodies, order) = (&self.bodies, &self.order);
        let recorded: Vec<Recorder> = std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(t, client)| {
                    let mut mine = rec.for_thread(t as u64);
                    scope.spawn(move || {
                        for &i in order {
                            let (request, expected) = &bodies[i];
                            mine.call(
                                "serve.http.request",
                                i,
                                true,
                                || client.post("/query", request),
                                |reply| match reply {
                                    Ok((200, body)) if body == expected => Ok(Vec::new()),
                                    Ok((200, _)) => Err("response differs from the answer".into()),
                                    Ok((status, body)) => Err(format!("status {status}: {body}")),
                                    Err(e) => Err(e.to_string()),
                                },
                            );
                        }
                        mine
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("client thread")).collect()
        });
        for thread in recorded {
            rec.absorb(thread);
        }
        let passes = self.with_engine(Engine::stats_passes);
        let before = *self.passes_after_warmup.get_or_insert(passes);
        rec.invariant("serve_cached.zero_scan", passes == before, || {
            format!("stats_passes moved from {before} to {passes} after warm-up")
        });
    }

    fn finish(&mut self, rec: &mut Recorder) {
        rec.scoring = true;
        for (i, stmt) in self.statements.iter().enumerate() {
            let answer = self.with_engine(|e| e.query(stmt.stmt.sql, stmt.stmt.mode));
            rec.judge("serve_cached.in_process_answer", i, stmt.judge(&answer));
        }
        rec.scoring = false;
    }

    fn engine_counters(&self) -> [u64; 5] {
        self.with_engine(super::counters_of)
    }
}
