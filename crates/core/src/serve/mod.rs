//! `mpe serve` — a long-lived estimation daemon with an HTTP/JSON job
//! API.
//!
//! The CLI's one-shot subcommands pay circuit parsing, topological
//! sorting and CSR packing on every invocation; a deployment screening
//! many configurations against one circuit wants those costs amortised
//! and the runs supervised. This module turns the estimation pipeline
//! into a daemon:
//!
//! * [`jobs::JobEngine`] — a bounded FIFO job queue (backpressure via
//!   HTTP 429) in front of a fixed runner pool; every job gets its own
//!   [`CancelToken`] and bounded event ring.
//! * [`cache::CircuitCache`] — parse + topo-sort + CSR packing once per
//!   distinct circuit, shared by every job that names it.
//! * [`Server`] — a small `std::net` HTTP front end (the workspace adds
//!   no dependencies): framed JSON responses for control endpoints, an
//!   unframed NDJSON stream for live telemetry. Every body goes through
//!   [`json`], the workspace codec re-exported from `mpe_telemetry::json`.
//! * crash-safe spooling — specs, rolling checkpoints and terminal
//!   reports persist under `--spool DIR`; a restarted daemon re-registers
//!   finished jobs and resumes unfinished ones from their checkpoints.
//!
//! Routes:
//!
//! | method & path            | behaviour                                   |
//! |--------------------------|---------------------------------------------|
//! | `POST /jobs`             | submit a [`jobs::JobSpec`] → `202` + job id |
//! | `GET /jobs/:id`          | status + embedded report once done          |
//! | `GET /jobs/:id/report`   | the raw report (CLI-byte-identical)         |
//! | `GET /jobs/:id/events`   | NDJSON event stream (schema v2)             |
//! | `POST /jobs/:id/cancel`  | graceful stop, partial result kept          |
//! | `GET /healthz`           | liveness                                    |
//! | `GET /stats`             | queue/lifecycle/cache counters              |
//! | `POST /shutdown`         | graceful daemon shutdown                    |
//!
//! Every failure is an [`AppError`]: the HTTP body carries the same
//! kind + message the CLI prints on stderr, so a failure reads the same
//! in a terminal and in a client.

pub mod cache;
pub mod http;
pub mod jobs;
pub use mpe_telemetry::json;

use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::AppError;
use crate::supervise::CancelToken;

use http::Request;
use jobs::{JobEngine, JobSpec};

/// How often the shutdown waker checks the token, and the back-off after
/// a failed accept. Neither is on a request's path: the accept loop
/// blocks in `accept` and serves each connection as soon as it arrives.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);

/// Daemon configuration (the `mpe serve` flags).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address
    /// is reported by [`Server::local_addr`]).
    pub addr: String,
    /// Estimation runner threads.
    pub runners: usize,
    /// HTTP worker threads (cheap; they mostly block on I/O).
    pub http_threads: usize,
    /// Bounded queue depth; a submission beyond it is refused with 429.
    pub queue_depth: usize,
    /// Spool directory for crash-safe job state; `None` disables
    /// persistence and restart-resume.
    pub spool: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            runners: 2,
            http_threads: 4,
            queue_depth: 16,
            spool: None,
        }
    }
}

/// A bound, not-yet-serving daemon. [`Server::run`] blocks until the
/// shutdown token trips (SIGTERM via the CLI, `POST /shutdown`, or the
/// embedder's own [`CancelToken::cancel`]).
pub struct Server {
    listener: TcpListener,
    engine: Arc<JobEngine>,
    shutdown: CancelToken,
    http_threads: usize,
}

impl Server {
    /// Binds the listener and boots the job engine (including spool
    /// recovery), without accepting connections yet.
    ///
    /// # Errors
    ///
    /// Runtime-class [`AppError`] when the address cannot be bound or
    /// the spool directory is unusable.
    pub fn bind(config: ServerConfig, shutdown: CancelToken) -> Result<Server, AppError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| AppError::runtime(format!("cannot bind `{}`: {e}", config.addr)))?;
        let engine = Arc::new(JobEngine::start(
            config.runners,
            config.queue_depth,
            config.spool,
        )?);
        Ok(Server {
            listener,
            engine,
            shutdown,
            http_threads: config.http_threads.max(1),
        })
    }

    /// The actually-bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Runtime-class [`AppError`] if the socket address cannot be read
    /// back (never in practice).
    pub fn local_addr(&self) -> Result<SocketAddr, AppError> {
        self.listener
            .local_addr()
            .map_err(|e| AppError::runtime(format!("cannot read bound address: {e}")))
    }

    /// Serves until the shutdown token trips, then drains gracefully:
    /// stops accepting, cancels queued/running jobs (running ones stop
    /// gracefully and keep their partial results), joins the runner pool
    /// and the HTTP workers.
    ///
    /// # Errors
    ///
    /// Runtime-class [`AppError`] when an HTTP worker cannot be spawned.
    pub fn run(self) -> Result<(), AppError> {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::new();
        for i in 0..self.http_threads {
            let rx = Arc::clone(&rx);
            let engine = Arc::clone(&self.engine);
            let shutdown = self.shutdown.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("mpe-http-{i}"))
                    .spawn(move || loop {
                        let stream = {
                            let guard = rx.lock().expect("http queue poisoned");
                            guard.recv()
                        };
                        match stream {
                            Ok(stream) => handle_connection(stream, &engine, &shutdown),
                            Err(_) => return,
                        }
                    })
                    .map_err(|e| AppError::runtime(format!("cannot spawn http worker: {e}")))?,
            );
        }
        let waker = self.spawn_waker()?;
        loop {
            let accepted = self.listener.accept();
            // Blocking accept: a shutdown is noticed on the waker's
            // self-connection (or any other connection that races it).
            if self.shutdown.is_cancelled() {
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    // Per-connection I/O times out so a stalled client
                    // cannot pin a worker forever.
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                // Resource exhaustion (EMFILE and the like): back off
                // instead of spinning on the error.
                Err(_) => std::thread::sleep(SHUTDOWN_POLL),
            }
        }
        // Whatever ended the loop, trip the token so the waker returns.
        self.shutdown.cancel();
        let _ = waker.join();
        // Drain: no new connections, finish the engine first so event
        // streams close and blocked workers can run out.
        self.engine.shutdown();
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }

    /// Starts the thread that wakes the blocking accept loop on shutdown.
    /// The token stays a plain atomic (so a signal handler may trip it);
    /// the waker polls it and, once it trips, makes one connection to the
    /// listener, over loopback when the listener is bound to an
    /// unspecified address.
    fn spawn_waker(&self) -> Result<JoinHandle<()>, AppError> {
        let mut addr = self.local_addr()?;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shutdown = self.shutdown.clone();
        std::thread::Builder::new()
            .name("mpe-shutdown-waker".to_string())
            .spawn(move || {
                while !shutdown.is_cancelled() {
                    std::thread::sleep(SHUTDOWN_POLL);
                }
                let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            })
            .map_err(|e| AppError::runtime(format!("cannot spawn shutdown waker: {e}")))
    }
}

/// Serves one connection: parse, route, respond, close.
fn handle_connection(stream: TcpStream, engine: &Arc<JobEngine>, shutdown: &CancelToken) {
    let mut reader = BufReader::new(stream);
    let request = match http::read_request(&mut reader) {
        Ok(request) => request,
        Err(err) => {
            let mut stream = reader.into_inner();
            http::write_error(&mut stream, &err);
            return;
        }
    };
    let mut stream = reader.into_inner();
    match route(&request, engine, shutdown, &mut stream) {
        Ok(Routed::Responded) => {}
        Ok(Routed::Body { status, body }) => {
            let reason = match status {
                202 => "Accepted",
                _ => "OK",
            };
            http::write_response(&mut stream, status, reason, &body);
        }
        Err(err) => http::write_error(&mut stream, &err),
    }
}

enum Routed {
    /// The handler already wrote the response (event streams).
    Responded,
    /// A framed JSON response to write.
    Body { status: u16, body: String },
}

/// A one-line `{"id":…,"status":…}` body; `id` is omitted when `None`.
fn status_body(id: Option<&str>, status: &str) -> String {
    let mut w = json::JsonWriter::compact();
    w.begin_object();
    if let Some(id) = id {
        w.field("id", id);
    }
    w.field("status", status);
    w.end_object();
    w.finish() + "\n"
}

fn route(
    request: &Request,
    engine: &Arc<JobEngine>,
    shutdown: &CancelToken,
    stream: &mut TcpStream,
) -> Result<Routed, AppError> {
    let ok = |body: String| Ok(Routed::Body { status: 200, body });
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => ok(status_body(None, "ok")),
        ("GET", "/stats") => ok(engine.stats_json()),
        ("POST", "/shutdown") => {
            shutdown.cancel();
            ok(status_body(None, "shutting down"))
        }
        ("POST", "/jobs") => {
            let doc = json::parse(&request.body)
                .map_err(|e| AppError::usage(format!("invalid JSON body: {e}")))?;
            let spec = JobSpec::from_json(&doc)?;
            let job = engine.submit(spec)?;
            Ok(Routed::Body {
                status: 202,
                body: status_body(Some(&job.id), "queued"),
            })
        }
        (method, path) => {
            let Some(rest) = path.strip_prefix("/jobs/") else {
                return Err(AppError::not_found(format!("no route for `{path}`")));
            };
            let (id, action) = match rest.split_once('/') {
                Some((id, action)) => (id, Some(action)),
                None => (rest, None),
            };
            let job = engine
                .job(id)
                .ok_or_else(|| AppError::not_found(format!("no such job `{id}`")))?;
            match (method, action) {
                ("GET", None) => ok(job.status_json()),
                ("GET", Some("report")) => {
                    let report = job.report_json().ok_or_else(|| {
                        AppError::not_found(format!(
                            "job `{id}` has no report (status: {})",
                            job.status_label()
                        ))
                    })?;
                    // The CLI prints the report with a trailing newline;
                    // serve the same bytes so `diff` is clean.
                    ok(format!("{report}\n"))
                }
                ("POST", Some("cancel")) => {
                    let job = engine.cancel(id)?;
                    ok(status_body(Some(&job.id), job.status_label()))
                }
                ("GET", Some("events")) => {
                    stream_events(&job, stream);
                    Ok(Routed::Responded)
                }
                _ => Err(AppError::not_found(format!(
                    "no route for `{method} {path}`"
                ))),
            }
        }
    }
}

/// Streams the job's telemetry ring as NDJSON until the job finishes
/// (the hub closes) or the client hangs up. Subscribers that fall behind
/// the bounded ring lose events — counted, never blocking the run.
fn stream_events(job: &jobs::Job, stream: &mut TcpStream) {
    if http::start_ndjson_stream(stream).is_err() {
        return;
    }
    // Event streams outlive the 10 s request-read timeout by design.
    let _ = stream.set_read_timeout(None);
    let mut subscriber = job.hub.subscribe();
    while let Some(batch) = subscriber.wait() {
        for event in &batch.events {
            if stream
                .write_all(event.to_json_line().as_bytes())
                .and_then(|()| stream.write_all(b"\n"))
                .is_err()
            {
                return;
            }
        }
        if stream.flush().is_err() {
            return;
        }
    }
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn request(addr: SocketAddr, head: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connects");
        write!(
            stream,
            "{head} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("request writes");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("response reads");
        let status: u16 = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    type Serving = std::thread::JoinHandle<Result<(), AppError>>;

    /// Boots an idle one-runner daemon on `addr` and serves it on a
    /// background thread.
    fn boot(addr: &str) -> (SocketAddr, CancelToken, Serving) {
        let shutdown = CancelToken::new();
        let server = Server::bind(
            ServerConfig {
                addr: addr.to_string(),
                runners: 1,
                http_threads: 2,
                ..ServerConfig::default()
            },
            shutdown.clone(),
        )
        .expect("binds");
        let mut bound = server.local_addr().expect("bound address");
        if bound.ip().is_unspecified() {
            bound.set_ip(Ipv4Addr::LOCALHOST.into());
        }
        (bound, shutdown, std::thread::spawn(move || server.run()))
    }

    /// An embedder's `cancel()` (or SIGTERM, which trips the same token)
    /// wakes the blocking accept even on a wildcard bind.
    #[test]
    fn idle_wildcard_server_stops_promptly_on_external_cancel() {
        let (addr, shutdown, serving) = boot("0.0.0.0:0");
        let (status, _) = request(addr, "GET /healthz", "");
        assert_eq!(status, 200);
        let cancelled = std::time::Instant::now();
        shutdown.cancel();
        serving
            .join()
            .expect("server thread joins")
            .expect("clean shutdown");
        assert!(
            cancelled.elapsed() < Duration::from_secs(1),
            "run() took {:?} to notice the cancelled token",
            cancelled.elapsed()
        );
    }

    #[test]
    fn shutdown_route_stops_the_server() {
        let (addr, shutdown, serving) = boot("127.0.0.1:0");
        let (status, body) = request(addr, "POST /shutdown", "");
        assert_eq!(
            (status, body.as_str()),
            (200, "{\"status\":\"shutting down\"}\n")
        );
        serving
            .join()
            .expect("server thread joins")
            .expect("clean shutdown");
        assert!(shutdown.is_cancelled());
    }

    /// Connections are accepted as they arrive, not on a polling tick.
    #[test]
    fn back_to_back_requests_do_not_wait_on_a_poll() {
        let (addr, shutdown, serving) = boot("127.0.0.1:0");
        let started = std::time::Instant::now();
        for _ in 0..20 {
            let (status, _) = request(addr, "GET /healthz", "");
            assert_eq!(status, 200);
        }
        let elapsed = started.elapsed();
        shutdown.cancel();
        serving
            .join()
            .expect("server thread joins")
            .expect("clean shutdown");
        assert!(
            elapsed < Duration::from_millis(400),
            "20 /healthz round trips took {elapsed:?}"
        );
    }

    /// One in-process end-to-end pass over every route: submit, status,
    /// report, events, cancel, stats, shutdown, plus the 4xx paths.
    #[test]
    fn daemon_serves_a_job_end_to_end() {
        let shutdown = CancelToken::new();
        let server = Server::bind(
            ServerConfig {
                runners: 1,
                http_threads: 2,
                queue_depth: 4,
                ..ServerConfig::default()
            },
            shutdown.clone(),
        )
        .expect("binds");
        let addr = server.local_addr().expect("bound address");
        let serving = std::thread::spawn(move || server.run());

        let (status, body) = request(addr, "GET /healthz", "");
        assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}\n"));

        let (status, body) = request(addr, "POST /jobs", r#"{"circuit":"C432","epsilon":0.2}"#);
        assert_eq!(status, 202, "{body}");
        assert!(body.contains("\"id\":\"j000001\""), "{body}");

        // 4xx family: bad JSON, bad spec, unknown route, unknown job.
        let (status, body) = request(addr, "POST /jobs", "not json");
        assert_eq!(status, 400);
        assert!(body.contains("\"kind\":\"usage\""), "{body}");
        let (status, body) = request(
            addr,
            "POST /jobs",
            r#"{"circuit":"C432","metric":"delay","kernel":"packed"}"#,
        );
        assert_eq!(status, 422);
        assert!(body.contains("delay metric"), "{body}");
        let (status, _) = request(addr, "GET /nope", "");
        assert_eq!(status, 404);
        let (status, _) = request(addr, "GET /jobs/j999999", "");
        assert_eq!(status, 404);

        // The event stream drains to end-of-stream when the job is done.
        let mut stream = TcpStream::connect(addr).expect("connects");
        write!(
            stream,
            "GET /jobs/j000001/events HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        .expect("request writes");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("stream drains");
        let events = text.split_once("\r\n\r\n").expect("headers present").1;
        assert!(
            events.lines().count() > 0,
            "the run must stream telemetry events"
        );
        for line in events.lines() {
            crate::telemetry::EventRecord::parse_json_line(line).expect("valid schema-v2 event");
        }

        let (status, body) = request(addr, "GET /jobs/j000001", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"done\""), "{body}");
        let (status, report) = request(addr, "GET /jobs/j000001/report", "");
        assert_eq!(status, 200);
        assert!(report.ends_with('\n'));

        let (status, body) = request(addr, "GET /stats", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"done\":1"), "{body}");
        assert!(body.contains("\"circuit_cache\""), "{body}");

        let (status, _) = request(addr, "POST /shutdown", "");
        assert_eq!(status, 200);
        serving
            .join()
            .expect("server thread joins")
            .expect("clean shutdown");
    }
}
