//! `killi-serve`: the sweep engine as a long-lived service.
//!
//! A dependency-free (`std::net` only) HTTP/1.1 daemon that accepts
//! sweep jobs on two connection-handler threads, executes them on a
//! fixed worker pool, and answers duplicate submissions from a
//! content-addressed result cache:
//!
//! - `POST /v1/jobs` — submit a [`spec`] JSON body; `202` with a job id
//!   for a new job, `200` for a known one (any state), `429` +
//!   `Retry-After` when the bounded queue is full, `503` while
//!   draining, `400` with a typed error for anything malformed (a
//!   `fault_model` that names a file included: the server reads none).
//! - `GET /v1/jobs/:id` — job state.
//! - `GET /v1/jobs/:id/report` — the `killi-sweep/v3` report, exactly
//!   the bytes `run_sweep` emits for that config (`409` until done).
//! - `GET /v1/metrics` — a [`killi_obs::ServeMetrics`] snapshot.
//! - `GET /v1/healthz` — liveness.
//!
//! The cache key is the [`killi_bench::sweep::ValidatedSweepConfig`]
//! canonical JSON hashed with the in-repo splitmix64 hasher
//! ([`job_id_for`]), so any spelling of the same sweep — CLI shorthand
//! schemes, reordered JSON keys, defaults spelled out — maps to the
//! same job and is never recomputed. Each request must arrive whole
//! within [`http::READ_TIMEOUT`], so a client that stalls holds one
//! handler for at most that long while the other keeps answering.
//! Graceful shutdown (SIGTERM/ctrl-c via [`signal::install`], or
//! [`server::Handle::shutdown`]) drains queued and in-flight jobs before
//! [`Server::run`] returns.

pub mod client;
pub mod http;
pub mod server;
pub mod signal;
pub mod spec;

pub use client::Client;
pub use server::{Handle, Server, ServerConfig};
pub use spec::{job_id_for, parse_job_spec, JobSpec, SpecError};
