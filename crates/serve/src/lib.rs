//! # cvopt-serve
//!
//! The serving layer: a long-lived, std-only threaded HTTP/1.1 server
//! over the CVOPT [`Engine`](cvopt_core::Engine) — the deployment model
//! the paper motivates (precompute the stratified sample once, answer
//! many group-by queries from it), exposed to concurrent clients.
//!
//! ## Pipeline
//!
//! [`Server`] is the HTTP service over the workspace's one connection
//! pipeline, [`cvopt_net::pipeline`] (the diagram lives there): a full
//! queue answers `503` + `Retry-After`, and a keep-alive connection
//! occupies a worker only while a request is in flight.
//!
//! * [`SharedEngine`] shares one engine across the pool: cache **hits**
//!   take only a read lock, and concurrent cache **misses** for the same
//!   problem coalesce into a single sampling run inside the engine.
//! * Each request's passes run with a fixed slice of the server-wide
//!   thread budget ([`ServerConfig::request_threads`]).
//! * Responses are byte-deterministic: the engine's answers are pure
//!   functions of (table, problem, seed), the JSON writer renders values
//!   canonically, and no clock-dependent header is emitted — so the
//!   determinism contract the execution layer pins per-thread-count
//!   extends across the wire, client count included.
//!
//! ## Example
//!
//! ```
//! use cvopt_core::{Engine, QueryMode};
//! use cvopt_serve::{client, Json, Server, ServerConfig};
//! use cvopt_table::{DataType, TableBuilder, Value};
//!
//! // An engine with one registered table...
//! let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
//! for i in 0..4000u32 {
//!     let g = ["a", "b", "c"][(i % 3) as usize];
//!     b.push_row(&[Value::str(g), Value::Float64((i % 37) as f64)]).unwrap();
//! }
//! let mut engine = Engine::new().with_seed(7);
//! engine.register("events", b.finish());
//!
//! // ...served on an ephemeral port.
//! let server = Server::start(engine, ServerConfig::default()).unwrap();
//! let body = r#"{"sql":"SELECT g, AVG(x) FROM events GROUP BY g","mode":"approximate"}"#;
//! let (status, text) = client::post(server.addr(), "/query", body).unwrap();
//! assert_eq!(status, 200);
//! let answer = Json::parse(&text).unwrap();
//! assert_eq!(answer.get("report").unwrap().get("cache_hit").unwrap().as_bool(), Some(false));
//!
//! // The repeat is served from the prepared-sample cache: zero scans.
//! let (_, text) = client::post(server.addr(), "/query", body).unwrap();
//! let answer = Json::parse(&text).unwrap();
//! assert_eq!(answer.get("report").unwrap().get("cache_hit").unwrap().as_bool(), Some(true));
//! server.shutdown();
//! ```
//!
//! The `cvopt-served` binary wraps [`Server`] behind a small CLI; see the
//! README's "Serving" section for the endpoint table and a curl
//! transcript.

#![warn(missing_docs)]

pub mod admission;
pub mod api;
pub mod client;
pub mod http;
pub mod json;
pub mod server;
pub mod shared;

pub use admission::AdmissionControl;
pub use api::ApiState;
pub use client::Client;
pub use http::{Request, Response};
pub use json::Json;
pub use server::{Server, ServerConfig};
pub use shared::{EngineCounters, SharedEngine};
