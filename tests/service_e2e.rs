//! End-to-end tests of the `killi-serve` daemon: real sockets, real
//! worker pool, real sweeps.
//!
//! What must hold (and is easy to silently lose):
//!
//! - **Content addressing**: concurrent submissions of one config run
//!   `run_sweep` exactly once, and everyone gets the same bytes — the
//!   exact bytes a direct in-process `run_sweep` produces, which are the
//!   `tests/golden/sweep_report.json` bytes for the golden job.
//! - **Backpressure**: a full queue answers 429 with `Retry-After`
//!   instead of queueing unboundedly.
//! - **Graceful drain**: shutdown mid-queue finishes accepted jobs and
//!   never loses a completed result; submissions during the drain get
//!   503.
//! - **Hostility**: malformed requests are 4xx, never a panic or a
//!   wedged daemon.
//! - **Liveness**: a client that stalls mid-request does not delay
//!   anyone else, and `run()` returns as soon as a drain has nothing
//!   left to do.
//!
//! Servers run with `heed_signals` off so these tests cannot be drained
//! by the signal-handling test elsewhere in the workspace.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use killi_repro::obs::escape_json;
use killi_repro::obs::serve::{parse_job_id, JobId, ServeCounter};
use killi_repro::serve::{parse_job_spec, Client, Handle, Server, ServerConfig};

mod common;
use common::golden_path;

fn golden_job() -> String {
    std::fs::read_to_string(golden_path("service_job.json")).expect("golden job payload")
}

/// Binds a server on an ephemeral port, runs it on a thread, and hands
/// back the pieces a test needs.
fn start_server(config: ServerConfig) -> (Handle, Client, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        host: "127.0.0.1".to_string(),
        port: 0,
        heed_signals: false,
        ..config
    })
    .expect("bind ephemeral port");
    let handle = server.handle();
    let client = Client::new(&format!("http://{}", server.local_addr())).expect("client URL");
    let runner = std::thread::spawn(move || server.run().expect("server run"));
    (handle, client, runner)
}

/// Extracts a JSON string field from a small response body without
/// pulling in a full deserializer.
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":\"");
    let start = body.find(&marker)? + marker.len();
    let end = body[start..].find('"')? + start;
    Some(&body[start..end])
}

fn submit_job(client: &Client, payload: &str) -> (u16, String) {
    let resp = client
        .post("/v1/jobs", payload.as_bytes())
        .expect("submit over loopback");
    (resp.status, resp.text())
}

/// Polls until the job settles; panics if it does not within `limit`.
fn await_done(client: &Client, job: &str, limit: Duration) {
    let deadline = Instant::now() + limit;
    loop {
        let resp = client.get(&format!("/v1/jobs/{job}")).expect("status poll");
        assert_eq!(resp.status, 200, "status poll body: {}", resp.text());
        let body = resp.text();
        match field(&body, "state") {
            Some("done") => return,
            Some("failed") => panic!("job {job} failed: {body}"),
            _ => {}
        }
        assert!(
            Instant::now() < deadline,
            "job {job} did not finish in time"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn concurrent_submissions_share_one_execution_and_the_golden_bytes() {
    let (handle, client, runner) = start_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let payload = golden_job();

    // Four concurrent submissions of the same config.
    let submitters: Vec<_> = (0..4)
        .map(|_| {
            let client = client.clone();
            let payload = payload.clone();
            std::thread::spawn(move || submit_job(&client, &payload))
        })
        .collect();
    let responses: Vec<(u16, String)> = submitters
        .into_iter()
        .map(|t| t.join().expect("submitter thread"))
        .collect();

    // Every submission was answered (202 fresh, 200 cache hit), all with
    // the same content-derived job id.
    let mut ids: Vec<&str> = Vec::new();
    for (status, body) in &responses {
        assert!(
            *status == 200 || *status == 202,
            "unexpected submit response {status}: {body}"
        );
        ids.push(field(body, "job").expect("job id in response"));
    }
    assert!(
        ids.windows(2).all(|w| w[0] == w[1]),
        "ids diverged: {ids:?}"
    );
    let job = ids[0].to_string();

    await_done(&client, &job, Duration::from_secs(120));

    // Everyone fetches; all four reports are byte-identical, equal to a
    // direct in-process run of the same validated config, and equal to
    // the golden sweep report bytes.
    let direct = parse_job_spec(payload.as_bytes())
        .expect("golden parses")
        .run();
    let golden =
        std::fs::read_to_string(golden_path("sweep_report.json")).expect("golden sweep report");
    assert_eq!(direct, golden, "direct run diverged from the golden bytes");
    for _ in 0..4 {
        let resp = client
            .get(&format!("/v1/jobs/{job}/report"))
            .expect("fetch report");
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(
            resp.text(),
            golden,
            "service report diverged from the golden bytes"
        );
    }

    // Exactly one sweep ran; the other three submissions were answered
    // from the content-addressed store.
    let metrics = handle.metrics();
    assert_eq!(metrics.get(ServeCounter::SweepExecutions), 1);
    assert_eq!(metrics.get(ServeCounter::CacheHits), 3);
    assert_eq!(metrics.get(ServeCounter::JobsAccepted), 4);
    assert_eq!(metrics.get(ServeCounter::JobsCompleted), 1);

    // /v1/metrics serves the same snapshot over the wire.
    let wire = client.get("/v1/metrics").expect("metrics endpoint");
    assert_eq!(wire.status, 200);
    assert_eq!(wire.text(), handle.metrics().to_json());

    handle.shutdown();
    runner.join().expect("server thread");
}

#[test]
fn queue_overflow_gets_429_and_drain_keeps_every_accepted_result() {
    // One slow-starting worker and a single queue slot: job A occupies
    // the worker (held in its start delay), job B fills the queue, job C
    // must bounce with 429.
    let (handle, client, runner) = start_server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        job_start_delay_ms: 1000,
        ..ServerConfig::default()
    });
    let tiny_job = |seed: u64| {
        format!(
            "{{\"root_seed\": {seed}, \"replications\": 1, \"vdds\": [0.65, 0.625], \
             \"schemes\": [\"killi:ratio=16\"], \"workloads\": [\"fft\"], \
             \"ops_per_cu\": 200, \"gpu\": {{\"cus\": 2, \"l2_kb\": 64}}}}"
        )
    };

    let (status_a, body_a) = submit_job(&client, &tiny_job(1));
    assert_eq!(status_a, 202, "{body_a}");
    let id_a: JobId = parse_job_id(field(&body_a, "job").unwrap()).unwrap();
    // Wait until the worker has pulled A off the queue, so B lands in
    // the queue deterministically.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.job_state(id_a) == Some("queued") {
        assert!(Instant::now() < deadline, "worker never picked up job A");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (status_b, body_b) = submit_job(&client, &tiny_job(2));
    assert_eq!(status_b, 202, "{body_b}");
    let id_b: JobId = parse_job_id(field(&body_b, "job").unwrap()).unwrap();

    let resp_c = client
        .post("/v1/jobs", tiny_job(3).as_bytes())
        .expect("submit C");
    assert_eq!(resp_c.status, 429, "{}", resp_c.text());
    assert_eq!(
        resp_c.header("retry-after"),
        Some("1"),
        "429 needs Retry-After"
    );

    // Shut down with A running and B still queued: the drain must
    // finish both and lose neither result.
    handle.shutdown();

    // Mid-drain, reads keep working and new submissions get 503.
    let health = client.get("/v1/healthz").expect("healthz during drain");
    assert_eq!(health.status, 200);
    assert!(
        health.text().contains("\"draining\":true"),
        "{}",
        health.text()
    );
    let rejected = client
        .post("/v1/jobs", tiny_job(4).as_bytes())
        .expect("submit during drain");
    assert_eq!(rejected.status, 503, "{}", rejected.text());
    assert_eq!(rejected.header("retry-after"), Some("5"));

    runner.join().expect("server thread");

    for (label, id) in [("A", id_a), ("B", id_b)] {
        assert_eq!(
            handle.job_state(id),
            Some("done"),
            "job {label} lost in the drain"
        );
        let report = handle
            .report(id)
            .unwrap_or_else(|| panic!("job {label} completed but its report vanished"));
        assert!(
            report.contains("killi-sweep/v3"),
            "job {label} report shape"
        );
    }
    let metrics = handle.metrics();
    assert_eq!(metrics.get(ServeCounter::SweepExecutions), 2);
    assert_eq!(metrics.get(ServeCounter::RejectedQueueFull), 1);
    assert_eq!(metrics.get(ServeCounter::RejectedDraining), 1);
    assert_eq!(metrics.get(ServeCounter::JobsCompleted), 2);
}

/// Writes raw bytes to the server and returns the status line, for
/// request shapes the well-behaved [`Client`] cannot produce.
fn raw_request(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("write");
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);
    text.lines().next().unwrap_or_default().to_string()
}

#[test]
fn hostile_requests_get_4xx_and_never_wedge_the_service() {
    let (handle, client, runner) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    // Hostile bodies through the real POST path.
    let deep = format!("{}1{}", "[".repeat(2000), "]".repeat(2000));
    // A job may not name a file on the server, not even one of valid
    // anchors that the CLI would accept.
    let anchors =
        std::env::temp_dir().join(format!("killi-service-anchors-{}.csv", std::process::id()));
    std::fs::write(&anchors, "0.5,-0.3\n0.6,-4.19\n0.7,-9.5\n").expect("write anchors");
    let file_model = format!(
        "\"fault_model\":\"table:file={}\"",
        escape_json(&anchors.to_string_lossy())
    );
    let file_sweep = format!(
        "{{\"root_seed\":1,\"replications\":1,\"vdds\":[0.65,0.6],\"schemes\":[\"flair\"],\
         {file_model},\"workloads\":[\"fft\"],\"ops_per_cu\":10}}"
    );
    let file_vmin = format!(
        "{{\"mode\":\"vmin\",\"root_seed\":1,\"dies\":2,\"lines\":64,\"vdds\":[0.6,0.65],\
         \"schemes\":[\"flair\"],{file_model}}}"
    );
    for (payload, what) in [
        ("not json at all", "non-JSON body"),
        ("{\"root_seed\": 1}", "missing required fields"),
        (deep.as_str(), "pathologically deep nesting"),
        (
            "{\"root_seed\":1,\"replications\":1,\"vdds\":[0.65,0.6],\"schemes\":[\"frobnicate\"],\
             \"workloads\":[\"fft\"],\"ops_per_cu\":10}",
            "unknown scheme",
        ),
        (
            "{\"root_seed\":1,\"replications\":1,\"vdds\":[0.65,0.6],\"schemes\":[\"ms-ecc:t=3\"],\
             \"workloads\":[\"fft\"],\"ops_per_cu\":10}",
            "OLSC whose line checkbits exceed the payload",
        ),
        (
            "{\"root_seed\":1,\"replications\":1,\"vdds\":[0.65,0.6],\"schemes\":[\"flair\"],\
             \"workloads\":[\"fft\"],\"ops_per_cu\":10,\"gpu\":{\"line_bytes\":0}}",
            "zero-byte cache lines",
        ),
        (
            "{\"root_seed\":1,\"replications\":1,\"vdds\":[0.65,0.6],\"schemes\":[\"flair\"],\
             \"fault_model\":\"table:sigma=nan\",\"workloads\":[\"fft\"],\"ops_per_cu\":10}",
            "a sweep over a fault model with a NaN parameter",
        ),
        (
            "{\"mode\":\"vmin\",\"root_seed\":1,\"dies\":2,\"lines\":64,\"vdds\":[0.6,0.65],\
             \"schemes\":[\"flair\"],\"fault_model\":\"table:sigma=nan\"}",
            "a Vmin campaign over a fault model with a NaN parameter",
        ),
        (
            "{\"mode\":\"vmin\",\"root_seed\":1,\"dies\":2,\"lines\":64,\"vdds\":[0.6,0.65],\
             \"schemes\":[\"ms-ecc:m=0\"]}",
            "a Vmin campaign binning an OLSC code that cannot be built",
        ),
        (
            "{\"root_seed\":1,\"replications\":1,\"vdds\":[0.65,0.6],\"schemes\":[\"flair\"],\
             \"fault_model\":\"table:anchors=0.5@-10;0.7@-2\",\"workloads\":[\"fft\"],\
             \"ops_per_cu\":10}",
            "a sweep over a table CDF that rises with voltage",
        ),
        (
            "{\"mode\":\"vmin\",\"root_seed\":1,\"dies\":2,\"lines\":64,\"vdds\":[0.6,0.65],\
             \"schemes\":[\"flair\"],\"fault_model\":\"table:anchors=0.5@-10;0.7@-2\"}",
            "a Vmin campaign over a table CDF that rises with voltage",
        ),
        (
            "{\"root_seed\":1,\"replications\":1,\"vdds\":[0.65,0.6],\"schemes\":[\"flair\"],\
             \"workloads\":[\"fft\"],\"ops_per_cu\":10,\"gpu\":{\"l2_kb\":96}}",
            "an L2 whose set count is not a power of two",
        ),
        (
            "{\"mode\":\"vmin\",\"root_seed\":1,\"dies\":2,\"lines\":4294967296,\
             \"vdds\":[0.6,0.65],\"schemes\":[\"flair\"]}",
            "a Vmin campaign whose dies have more lines than a u32 indexes",
        ),
        (
            "{\"root_seed\":1,\"replications\":1,\"vdds\":[0.65,0.6],\"schemes\":[\"flair\"],\
             \"workloads\":[\"fft\"],\"ops_per_cu\":10,\"gpu\":{\"l2_kb\":18014398509481985}}",
            "an L2 whose bytes overflow a usize",
        ),
        (
            "{\"root_seed\":1,\"replications\":1,\"vdds\":[0.65,0.6],\"schemes\":[\"flair\"],\
             \"workloads\":[\"fft\"],\"ops_per_cu\":10,\"gpu\":{\"l2_kb\":18014398509482496}}",
            "an L2 whose bytes wrap to 512 KiB",
        ),
        (
            "{\"root_seed\":1,\"replications\":1,\"vdds\":[0.65,0.6],\"schemes\":[\"flair\"],\
             \"workloads\":[\"fft\"],\"ops_per_cu\":10,\"gpu\":{\"mem_latency\":4294967396}}",
            "a memory latency past a u32, which would wrap to 100",
        ),
        (
            "{\"root_seed\":1,\"replications\":1,\"vdds\":[0.65,0.6],\
             \"schemes\":[\"killi:ratio=16\",\"killi:ratio=16,ecc_ways=8\"],\
             \"workloads\":[\"fft\"],\"ops_per_cu\":10}",
            "a sweep of two schemes under one label",
        ),
        (
            "{\"mode\":\"vmin\",\"root_seed\":1,\"dies\":2,\"lines\":64,\"vdds\":[0.6,0.65],\
             \"schemes\":[\"ms-ecc\",{\"name\":\"ms-ecc\",\"params\":{\"m\":16}}]}",
            "a Vmin campaign binning two schemes under one label",
        ),
        (file_sweep.as_str(), "a sweep naming a file on the server"),
        (
            file_vmin.as_str(),
            "a Vmin campaign naming a file on the server",
        ),
    ] {
        let resp = client.post("/v1/jobs", payload.as_bytes()).expect(what);
        assert_eq!(resp.status, 400, "{what}: {}", resp.text());
    }
    let _ = std::fs::remove_file(&anchors);
    // An oversize body is rejected from its Content-Length header alone,
    // so the server may close before the client finishes writing; both a
    // 400 and a torn-down connection are correct — a panic or a wedged
    // daemon is not.
    let huge = format!("{{\"root_seed\": {}}}", "9".repeat(2 << 20));
    if let Ok(resp) = client.post("/v1/jobs", huge.as_bytes()) {
        assert_eq!(resp.status, 400, "oversize body: {}", resp.text());
    }

    // Bad paths, ids, and methods.
    let resp = client.get("/v1/jobs/xyz").expect("bad id");
    assert_eq!(resp.status, 400, "{}", resp.text());
    let resp = client
        .get(&format!("/v1/jobs/{}", "0".repeat(32)))
        .expect("unknown id");
    assert_eq!(resp.status, 404, "{}", resp.text());
    let resp = client.get("/v1/nope").expect("unknown endpoint");
    assert_eq!(resp.status, 404, "{}", resp.text());
    let resp = client.get("/v1/jobs").expect("GET on POST endpoint");
    assert_eq!(resp.status, 405, "{}", resp.text());

    // Raw garbage the client type cannot even express.
    let status = raw_request(addr, b"DELETE /v1/healthz HTTP/1.1\r\n\r\n");
    assert!(status.starts_with("HTTP/1.1 405"), "{status}");
    let status = raw_request(addr, b"GET /v1/healthz SPDY/3\r\n\r\n");
    assert!(status.starts_with("HTTP/1.1 400"), "{status}");
    let status = raw_request(addr, b"\x00\x01\x02 garbage\r\n\r\n");
    assert!(status.starts_with("HTTP/1.1 400"), "{status}");

    // After all of that the daemon is still healthy and still works.
    let health = client.get("/v1/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\":\"ok\""));
    assert!(handle.metrics().get(ServeCounter::BadRequests) >= 8);

    handle.shutdown();
    runner.join().expect("server thread");
}

/// A `gpu` object drawn near the geometry rules' boundaries is either a
/// typed parse error or a job that runs: parsing never panics, and every
/// payload the parser accepts runs a small sweep without panicking.
#[test]
fn gpu_geometry_near_the_boundaries_is_rejected_or_runs() {
    killi_check::check_cases("gpu_geometry_boundaries", 512, |g| {
        let scheme = *g.pick(&["flair", "killi", "flair-online"]);
        let cus = g.u64_below(4);
        let l2_kb = *g.pick(&[0u64, 1, 48, 64, 96, 128]);
        let l2_ways = g.u64_below(18);
        let line_bytes = *g.pick(&[0u64, 1, 32, 48, 64, 128]);
        let l2_banks = g.u64_below(10);
        let payload = format!(
            "{{\"root_seed\":1,\"replications\":1,\"vdds\":[0.65,0.6],\"schemes\":[\"{scheme}\"],\
             \"workloads\":[\"fft\"],\"ops_per_cu\":20,\"threads\":1,\"gpu\":{{\"cus\":{cus},\
             \"l2_kb\":{l2_kb},\"l2_ways\":{l2_ways},\"line_bytes\":{line_bytes},\
             \"l2_banks\":{l2_banks}}}}}"
        );
        if let Ok(spec) = parse_job_spec(payload.as_bytes()) {
            assert!(spec.run().contains("killi-sweep/v3"), "{payload}");
        }
    });
}

/// Waits until the server thread has returned; panics if it has not
/// within `limit`.
fn await_return(runner: std::thread::JoinHandle<()>, limit: Duration) {
    let deadline = Instant::now() + limit;
    while !runner.is_finished() {
        assert!(
            Instant::now() < deadline,
            "run() did not return within {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    runner.join().expect("server thread");
}

#[test]
fn a_stalled_request_does_not_delay_other_clients() {
    let (handle, client, runner) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    // Half a request line, then silence: this connection holds whoever
    // reads it until the request deadline. Connected first, it is
    // accepted first.
    let mut stalled = TcpStream::connect(handle.local_addr()).expect("connect");
    stalled.write_all(b"GET /v1/hea").expect("write");

    let t = Instant::now();
    let health = client.get("/v1/healthz").expect("healthz");
    let waited = t.elapsed();
    assert_eq!(health.status, 200, "{}", health.text());
    assert!(
        waited < Duration::from_secs(1),
        "healthz waited {waited:?} behind a stalled connection"
    );

    drop(stalled);
    handle.shutdown();
    await_return(runner, Duration::from_secs(15));
}

#[test]
fn a_drain_does_not_wait_for_a_request_still_being_read() {
    let (handle, client, runner) = start_server(ServerConfig::default());
    // Half a request line, then silence, held open through the drain.
    let mut stalled = TcpStream::connect(handle.local_addr()).expect("connect");
    stalled.write_all(b"GET /v1/hea").expect("write");
    // Connections are accepted in order, so once the other handler has
    // answered this, the stalled one is being read.
    assert_eq!(client.get("/v1/healthz").expect("healthz").status, 200);

    handle.shutdown();
    await_return(runner, Duration::from_secs(2));
    // The stalled client gets its connection closed, not an answer.
    stalled
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("read timeout");
    let mut answer = [0u8; 64];
    assert!(
        stalled.read(&mut answer).map_or(true, |n| n == 0),
        "a cut-short request was answered"
    );
}

#[test]
fn shutdown_of_an_idle_server_returns_promptly() {
    let (handle, client, runner) = start_server(ServerConfig::default());
    assert_eq!(client.get("/v1/healthz").expect("healthz").status, 200);
    handle.shutdown();
    await_return(runner, Duration::from_secs(1));
}

#[test]
fn a_drain_during_a_running_job_returns_once_it_finishes_and_keeps_its_report() {
    let (handle, client, runner) = start_server(ServerConfig {
        workers: 1,
        job_start_delay_ms: 300,
        ..ServerConfig::default()
    });
    let job = "{\"root_seed\": 5, \"replications\": 1, \"vdds\": [0.65, 0.625], \
               \"schemes\": [\"killi:ratio=16\"], \"workloads\": [\"fft\"], \
               \"ops_per_cu\": 200, \"gpu\": {\"cus\": 2, \"l2_kb\": 64}}";
    let (status, body) = submit_job(&client, job);
    assert_eq!(status, 202, "{body}");
    let id = parse_job_id(field(&body, "job").unwrap()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.job_state(id) != Some("running") {
        assert!(
            Instant::now() < deadline,
            "the worker never started the job"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    handle.shutdown();
    // run() may not return while the job runs, and must return soon
    // after it lands. Read `is_finished` first: once it is true, the job
    // must already be done.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let returned = runner.is_finished();
        let state = handle.job_state(id);
        assert!(
            !returned || state == Some("done"),
            "run() returned with the job {state:?}"
        );
        if state == Some("done") {
            break;
        }
        assert!(Instant::now() < deadline, "the job never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
    await_return(runner, Duration::from_secs(1));

    assert_eq!(handle.job_state(id), Some("done"));
    let report = handle.report(id).expect("the drained job's report is kept");
    assert!(report.contains("killi-sweep/v3"), "report shape");
}
