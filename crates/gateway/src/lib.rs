//! `mtrl-gateway`: the networked serving front end for the RHCHME
//! stack.
//!
//! A std-only HTTP/1.1 server over [`std::net::TcpListener`] in front
//! of [`mtrl_serve::ServeEngine`]. No async runtime, no TLS, no
//! external dependencies — the wire layer is ~one file of plain
//! blocking sockets, which is all a fold-in service needs: requests
//! are small JSON bodies and the engine does the real work.
//!
//! What the gateway adds over calling the engine directly:
//!
//! - **Cross-client coalescing** ([`server`]): concurrent assign
//!   requests against the same `(model, type_index)` are merged into
//!   one engine batch within a wait window, recovering the batched
//!   fold-in kernel's throughput for single-document network callers.
//! - **Admission control** ([`server`]): a bounded job queue (full →
//!   `429` + `Retry-After`), a connection cap (over → `503`), hard
//!   HTTP input limits, and per-request deadlines (lapsed in queue →
//!   `504`). Overload degrades into fast rejections, never unbounded
//!   memory.
//! - **Observability**: `gateway.*` counters and an assign-latency
//!   histogram in the process-global `mtrl-obs` registry, served as
//!   Prometheus text at `/metrics` and as JSON (with p50/p99) at
//!   `/healthz`.
//!
//! # Wire API
//!
//! | route                          | meaning                                      |
//! |--------------------------------|----------------------------------------------|
//! | `POST /v1/models/{name}/assign`| fold in documents, return posteriors + labels|
//! | `GET /v1/models`               | registered models + method provenance        |
//! | `GET /healthz`                 | liveness + counters + latency quantiles      |
//! | `GET /metrics`                 | Prometheus text format                       |
//!
//! The assign body is a transliteration of
//! [`mtrl_serve::AssignRequest`] (see [`wire`]), and error responses
//! carry [`mtrl_serve::ServeError`]'s taxonomy — HTTP status codes come
//! from [`mtrl_serve::ServeError::http_status`], so in-process and
//! network callers share one error contract.
//!
//! ```no_run
//! use mtrl_gateway::{Gateway, GatewayConfig};
//! use mtrl_serve::ServeEngine;
//! use std::sync::Arc;
//!
//! let engine = Arc::new(ServeEngine::with_queue_capacity(2, 1024));
//! // engine.register("demo", model)?;
//! let gateway = Gateway::bind(engine, GatewayConfig::default())?;
//! println!("listening on http://{}", gateway.addr());
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod http;
pub mod server;
pub mod wire;

pub use server::{Gateway, GatewayConfig, GatewayStats};
