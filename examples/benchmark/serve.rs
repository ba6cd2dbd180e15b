//! The `serve-mixed` workload: an in-process `killi serve` under a
//! closed loop of clients in the same process. Each client alternates a
//! fresh sweep job (a result-cache miss: queue, worker, sweep, cache
//! write) with a resubmission of a job it completed recently (a hit: an
//! HTTP round trip and a cache lookup), polls the job's status every
//! 2 ms until it is done, then fetches the report.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use killi_repro::fault::rng::{derive_seed, splitmix64};
use killi_repro::obs::{parse_json, ServeCounter};
use killi_repro::serve::client::ClientResponse;
use killi_repro::serve::{parse_job_spec, Client, Handle, Server, ServerConfig};

use crate::stats::{median, min, percentile, tail_percentile, Digest};
use crate::trace::Recorder;
use crate::{Outcome, RunOpts};

/// Servers started (and stopped again) per run; `setup_s` is the median
/// start-up time.
const SETUP_REPEATS: usize = 21;
/// A hit resubmits one of the client's last `WINDOW` completed jobs.
const WINDOW: usize = 16;
/// Pause between two status polls of a running job.
const POLL_EVERY: Duration = Duration::from_millis(2);
/// A submission not done by then counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(30);
/// Fresh jobs per client whose fetched report is compared, after
/// timing, with the same payload run in process.
const VERIFIED_PER_CLIENT: usize = 4;
/// `/v1/healthz` round trips timed by the traced run.
const RTT_PROBES: usize = 32;
/// Cells of a job's report: 2 workloads x (baseline + 2 vdds x 1 scheme).
const REPORT_CELLS: usize = 6;

/// The job payload of fresh job `k` of client `client`.
fn payload(seed: u64, client: usize, k: u64) -> String {
    let root_seed = derive_seed(seed, "serve-job", &[client as u64, k]);
    format!(
        "{{\"root_seed\": {root_seed}, \"replications\": 1, \"vdds\": [0.65, 0.6], \
         \"schemes\": [\"killi\"], \"workloads\": [\"xsbench\", \"hacc\"], \
         \"ops_per_cu\": 3000, \"gpu\": {{\"l2_kb\": 512}}, \"threads\": 1}}"
    )
}

/// Chooses which completed job a client resubmits so that the server
/// still holds its report.
///
/// A job is a candidate only once its client received the report, so a
/// running job is never picked. The server evicts a report once
/// `cache_cap` other jobs completed after it. A job completing after job
/// X was either started after X or was another client's one job in
/// flight when X started, so fewer than `cache_cap - clients` fresh
/// starts after X prove X is still cached, however the server orders
/// completions.
pub struct HitScheduler {
    cache_cap: u64,
    clients: u64,
    window: usize,
    /// Fresh jobs started so far, by every client.
    started: u64,
    /// Per client: its last `window` received jobs and their start
    /// numbers, oldest first.
    recent: Vec<VecDeque<(u64, u64)>>,
}

impl HitScheduler {
    /// A scheduler for `clients` clients of a server caching
    /// `cache_cap` reports, picking among each client's last `window`
    /// received jobs.
    pub fn new(cache_cap: usize, clients: usize, window: usize) -> Self {
        HitScheduler {
            cache_cap: cache_cap as u64,
            clients: clients as u64,
            window,
            started: 0,
            recent: vec![VecDeque::new(); clients],
        }
    }

    /// Numbers a fresh job about to be submitted.
    pub fn start(&mut self) -> u64 {
        self.started += 1;
        self.started - 1
    }

    /// Records that `client` received the report of its job `job`,
    /// started as number `start`.
    pub fn completed(&mut self, client: usize, job: u64, start: u64) {
        let recent = &mut self.recent[client];
        recent.push_back((job, start));
        if recent.len() > self.window {
            recent.pop_front();
        }
    }

    /// A received job of `client` that is certainly still cached, chosen
    /// by `r`; `None` when there is none.
    pub fn pick(&self, client: usize, r: u64) -> Option<u64> {
        let candidates: Vec<u64> = self
            .recent
            .get(client)?
            .iter()
            .filter(|&&(_, start)| self.started - 1 - start + self.clients < self.cache_cap)
            .map(|&(job, _)| job)
            .collect();
        (!candidates.is_empty()).then(|| candidates[(r % candidates.len() as u64) as usize])
    }
}

/// A running in-process server and a client for it.
struct Running {
    handle: Handle,
    thread: JoinHandle<std::io::Result<()>>,
    client: Client,
}

/// Binds a server on an ephemeral localhost port, starts it, and waits
/// for its first `/v1/healthz` 200.
fn start(workers: usize) -> Result<Running, String> {
    let server = Server::bind(ServerConfig {
        workers,
        heed_signals: false,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.handle();
    let client = Client::new(&format!("http://{}", handle.local_addr()))?;
    let thread = std::thread::spawn(move || server.run());
    let running = Running {
        handle,
        thread,
        client,
    };
    let t = Instant::now();
    loop {
        match running.client.get("/v1/healthz") {
            Ok(r) if r.status == 200 => return Ok(running),
            _ if t.elapsed() > Duration::from_secs(10) => {
                running.stop()?;
                return Err("server never answered /v1/healthz".to_string());
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

impl Running {
    /// Drains the server and joins its accept loop.
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// Where a client records its spans: a recorder and parent span in the
/// traced run, nothing otherwise.
#[derive(Clone, Copy)]
struct Spans<'a> {
    rec: Option<&'a Recorder>,
    parent: usize,
}

impl<'a> Spans<'a> {
    /// Runs `f` under a new root span (when traced).
    fn root<R>(rec: Option<&'a Recorder>, name: &'static str, f: impl FnOnce(Spans<'a>) -> R) -> R {
        match rec {
            Some(r) => r.span(name, None, |id| {
                f(Spans {
                    rec: Some(r),
                    parent: id,
                })
            }),
            None => f(Spans {
                rec: None,
                parent: 0,
            }),
        }
    }

    /// Runs `f` in a leaf span (when traced) and returns its result with
    /// its wall time in ms.
    fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let out = match self.rec {
            Some(r) => r.leaf(name, self.parent, f),
            None => f(),
        };
        (out, t.elapsed().as_secs_f64() * 1e3)
    }
}

/// One client's measurements.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    errors: Vec<String>,
    miss_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    fetch_ms: Vec<f64>,
    polls_per_miss: Vec<f64>,
    /// (payload, fetched report) of the client's first fresh jobs.
    samples: Vec<(String, String)>,
}

fn state_of(resp: &ClientResponse) -> Result<(String, String), String> {
    let v = parse_json(&resp.text()).map_err(|e| format!("response is not JSON: {e}"))?;
    let field = |k: &str| v.get(k).and_then(|s| s.as_str()).map(str::to_string);
    Ok((
        field("job").ok_or("response names no job")?,
        field("state").ok_or("response has no state")?,
    ))
}

/// Submits `body`, polls until the job is done, fetches the report;
/// returns the report and the submit-to-report time in ms.
fn submit(
    client: &Client,
    body: &str,
    fresh: bool,
    spans: Spans<'_>,
    log: &mut ClientLog,
) -> Result<(String, f64), String> {
    let t0 = Instant::now();
    let (resp, ms) = spans.timed("serve.submit", || client.post("/v1/jobs", body.as_bytes()));
    log.submit_ms.push(ms);
    let resp = resp?;
    let expected = if fresh { 202 } else { 200 };
    if resp.status != expected {
        return Err(format!(
            "submit answered {} ({}), expected {expected}",
            resp.status,
            resp.text()
        ));
    }
    let (id, mut state) = state_of(&resp)?;
    if !fresh && state != "done" {
        return Err(format!("a resubmitted job is {state}, not done"));
    }
    let mut polls = 0;
    while state != "done" {
        if state == "failed" || t0.elapsed() > JOB_DEADLINE {
            return Err(format!("job {id} ended {state}"));
        }
        spans.timed("serve.poll_sleep", || std::thread::sleep(POLL_EVERY));
        let (resp, ms) = spans.timed("serve.poll", || client.get(&format!("/v1/jobs/{id}")));
        log.poll_ms.push(ms);
        polls += 1;
        let resp = resp?;
        if resp.status != 200 {
            return Err(format!("status poll answered {}", resp.status));
        }
        state = state_of(&resp)?.1;
    }
    let (resp, ms) = spans.timed("serve.fetch", || {
        client.get(&format!("/v1/jobs/{id}/report"))
    });
    log.fetch_ms.push(ms);
    let resp = resp?;
    if resp.status != 200 {
        return Err(format!("report fetch answered {}", resp.status));
    }
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    if fresh {
        log.polls_per_miss.push(f64::from(polls));
    }
    let report = String::from_utf8(resp.body).map_err(|_| "report is not UTF-8")?;
    Ok((report, latency_ms))
}

/// What every client shares.
struct LoopCtx<'a> {
    client: &'a Client,
    seed: u64,
    scheduler: &'a Mutex<HitScheduler>,
    rec: Option<&'a Recorder>,
    deadline: Instant,
}

/// One client's closed loop: alternate a fresh job and a hit until the
/// deadline, checking every report.
fn client_loop(c: usize, ctx: &LoopCtx<'_>) -> ClientLog {
    let mut log = ClientLog::default();
    let mut digests: HashMap<u64, Digest> = HashMap::new();
    let mut rng = derive_seed(ctx.seed, "serve-client", &[c as u64]);
    let mut next_fresh = 0u64;
    let mut want_hit = false;
    Spans::root(ctx.rec, "serve.client", |spans| {
        while Instant::now() < ctx.deadline {
            let mut scheduler = ctx.scheduler.lock().expect("a client thread panicked");
            rng = splitmix64(rng);
            let hit = if want_hit {
                scheduler.pick(c, rng)
            } else {
                None
            };
            want_hit = !want_hit;
            let (k, fresh, start) = match hit {
                Some(k) => (k, false, 0),
                None => {
                    next_fresh += 1;
                    (next_fresh - 1, true, scheduler.start())
                }
            };
            drop(scheduler);
            log.attempted += 1;
            let body = payload(ctx.seed, c, k);
            let done =
                submit(ctx.client, &body, fresh, spans, &mut log).and_then(|(report, ms)| {
                    let (checked, _) = spans.timed("bench.check", || {
                        crate::sweep::check_report(&report, REPORT_CELLS, 1)?;
                        let mut d = Digest::default();
                        d.update(report.as_bytes());
                        if *digests.entry(k).or_insert(d) != d {
                            return Err(format!("job {k} of client {c} changed its report"));
                        }
                        Ok(())
                    });
                    checked.map(|()| (report, ms))
                });
            match done {
                Ok((report, ms)) if fresh => {
                    log.miss_ms.push(ms);
                    if log.samples.len() < VERIFIED_PER_CLIENT {
                        log.samples.push((body, report));
                    }
                    let mut scheduler = ctx.scheduler.lock().expect("a client thread panicked");
                    scheduler.completed(c, k, start);
                }
                Ok((_, ms)) => log.hit_ms.push(ms),
                Err(e) => log.errors.push(e),
            }
        }
    });
    log
}

/// Runs `serve-mixed` (untraced or traced per `opts`).
pub fn run(opts: &RunOpts, rec: &Recorder) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let started = start(opts.threads);
        setup.push(t.elapsed().as_secs_f64());
        let next = match started {
            Ok(s) => s,
            Err(e) => {
                out.fail(e);
                break;
            }
        };
        if let Some(previous) = server.replace(next) {
            if let Err(e) = previous.stop() {
                out.fail(e);
            }
        }
    }
    let Some(server) = server else {
        return out;
    };
    measure(&server, median(&setup), opts, rec, &mut out);
    if let Err(e) = server.stop() {
        out.fail(e);
    }
    out
}

fn measure(server: &Running, setup_s: f64, opts: &RunOpts, rec: &Recorder, out: &mut Outcome) {
    let rec = opts.trace.then_some(rec);
    let clients = opts.threads;
    let scheduler = Mutex::new(HitScheduler::new(
        ServerConfig::default().cache_cap,
        clients,
        WINDOW,
    ));
    let start = Instant::now();
    let ctx = LoopCtx {
        client: &server.client,
        seed: opts.seed,
        scheduler: &scheduler,
        rec,
        deadline: start + Duration::from_secs_f64(opts.seconds),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let ctx = &ctx;
                s.spawn(move || client_loop(c, ctx))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    // Until the last client's last submission finished.
    let loop_s = start.elapsed().as_secs_f64();

    let all = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let (miss, hit) = (all(|l| &l.miss_ms), all(|l| &l.hit_ms));
    for log in &logs {
        out.attempted += log.attempted;
        for e in &log.errors {
            out.fail(e.clone());
        }
    }

    // After timing: the same payloads run in process must give the
    // fetched bytes.
    let job_run_ms = Spans::root(rec, "serve.verify", |spans| {
        let mut ms = Vec::new();
        for (body, fetched) in logs.iter().flat_map(|l| &l.samples) {
            let (local, t) = spans.timed("serve.job_run", || {
                parse_job_spec(body.as_bytes()).map(|spec| spec.run())
            });
            ms.push(t);
            match local {
                Ok(local) if local == *fetched => out.digest.update(local.as_bytes()),
                Ok(_) => out.fail("a served report differs from the in-process run".to_string()),
                Err(e) => out.fail(format!("in-process payload rejected: {e}")),
            }
        }
        median(&ms)
    });

    let tail = tail_percentile(miss.len()).unwrap_or(f64::NAN);
    let hit_tail = tail_percentile(hit.len()).unwrap_or(f64::NAN);
    out.detail.push(("misses", miss.len().to_string()));
    out.detail.push(("hits", hit.len().to_string()));
    out.detail.push(("miss_tail_pct", tail.to_string()));
    out.detail.push(("hit_tail_pct", hit_tail.to_string()));
    if rec.is_none() {
        out.samples("miss_ms", &miss);
        out.samples("hit_ms", &hit);
        out.metric("setup_s", setup_s);
        // The fastest miss, like the engine workloads' fastest operation.
        out.metric("best_op_ms", min(&miss));
        out.metric("work_per_s", (miss.len() + hit.len()) as f64 / loop_s);
        return;
    }

    let rtt = Spans::root(rec, "serve.probe", |spans| {
        (0..RTT_PROBES)
            .map(|_| {
                let (resp, ms) = spans.timed("serve.rtt", || server.client.get("/v1/healthz"));
                if !matches!(resp, Ok(ref r) if r.status == 200) {
                    out.fail("a /v1/healthz probe failed".to_string());
                }
                ms
            })
            .collect::<Vec<f64>>()
    });
    let m = server.handle.metrics();
    let (submit_ms, fetch_ms) = (all(|l| &l.submit_ms), all(|l| &l.fetch_ms));
    let polls = all(|l| &l.polls_per_miss);
    out.metric("serve.rtt_ms", median(&rtt));
    out.metric("serve.submit_ms", median(&submit_ms));
    out.metric("serve.poll_ms", median(&all(|l| &l.poll_ms)));
    out.metric("serve.fetch_ms", median(&fetch_ms));
    out.metric(
        "serve.polls_per_job",
        polls.iter().sum::<f64>() / polls.len() as f64,
    );
    out.metric("serve.job_run_ms", job_run_ms);
    out.metric(
        "serve.queue_wait_ms",
        median(&miss) - job_run_ms - median(&submit_ms) - median(&fetch_ms),
    );
    out.metric(
        "serve.cache_hit_ratio",
        m.get(ServeCounter::CacheHits) as f64 / m.get(ServeCounter::JobsAccepted) as f64,
    );
    out.metric(
        "serve.rejected",
        (m.get(ServeCounter::RejectedQueueFull) + m.get(ServeCounter::RejectedDraining)) as f64,
    );
    out.metric("serve.miss_p50_ms", median(&miss));
    out.metric("serve.hit_p50_ms", median(&hit));
    out.metric("serve.hit_tail_ms", percentile(&hit, hit_tail));
    out.metric("serve.job_tail_ms", percentile(&miss, tail));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn picks_only_the_clients_own_recent_completions() {
        let mut s = HitScheduler::new(64, 2, 4);
        assert_eq!(s.pick(0, 1), None);
        for job in 0..10 {
            let start = s.start();
            s.completed(0, job, start);
            let start = s.start();
            s.completed(1, 100 + job, start);
        }
        for r in 0..50 {
            let job = s.pick(0, r).unwrap();
            assert!((6..10).contains(&job), "{job} is outside client 0's window");
            assert!(s.pick(1, r).unwrap() >= 106);
        }
        assert_eq!(s.pick(2, 0), None);
        // Once enough fresh jobs started after them, none is safe.
        for _ in 0..64 {
            s.start();
        }
        assert_eq!(s.pick(0, 0), None);
    }

    /// Drives the scheduler against a model of the server: a FIFO result
    /// cache of `cap` reports, one job in flight per client, jobs
    /// finishing on the server in random order and reaching their
    /// clients after arbitrary delays. No pick may name a job that is
    /// evicted or not yet received.
    #[test]
    fn never_picks_an_evicted_or_running_job() {
        let (cap, clients) = (12, 3);
        let mut rng = 0x5eed_u64;
        let mut next = || {
            rng = splitmix64(rng);
            rng
        };
        let mut s = HitScheduler::new(cap, clients, 6);
        let mut cache: VecDeque<(usize, u64)> = VecDeque::new();
        let mut received: HashSet<(usize, u64)> = HashSet::new();
        // Per client: its in-flight job, its start number, and whether
        // it finished on the server.
        let mut in_flight: Vec<Option<(u64, u64, bool)>> = vec![None; clients];
        let mut fresh = vec![0u64; clients];
        let mut picks = 0;
        for _ in 0..50_000 {
            // Skew the schedule so one client often lags far behind.
            let c = ((next() % 10) as usize).min(clients - 1);
            match in_flight[c] {
                None if next() % 2 == 0 => {
                    if let Some(job) = s.pick(c, next()) {
                        picks += 1;
                        assert!(received.contains(&(c, job)), "picked a running job");
                        assert!(cache.contains(&(c, job)), "picked an evicted job");
                    }
                }
                None => {
                    in_flight[c] = Some((fresh[c], s.start(), false));
                    fresh[c] += 1;
                }
                Some((job, start, false)) => {
                    cache.push_back((c, job));
                    if cache.len() > cap {
                        cache.pop_front();
                    }
                    in_flight[c] = Some((job, start, true));
                }
                Some((job, start, true)) => {
                    received.insert((c, job));
                    s.completed(c, job, start);
                    in_flight[c] = None;
                }
            }
        }
        assert!(picks > 1000, "the model made only {picks} picks");
    }

    #[test]
    fn payloads_are_valid_distinct_jobs() {
        let a = parse_job_spec(payload(42, 0, 0).as_bytes()).unwrap();
        let b = parse_job_spec(payload(42, 1, 0).as_bytes()).unwrap();
        let again = parse_job_spec(payload(42, 0, 0).as_bytes()).unwrap();
        assert_ne!(a.canonical_json(), b.canonical_json());
        assert_eq!(a.canonical_json(), again.canonical_json());
    }
}
