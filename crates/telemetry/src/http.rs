//! Minimal hand-rolled HTTP/1.1 pull endpoint (std `TcpListener`, no
//! dependencies) exposing the observability plane:
//!
//! * `GET /metrics`   — Prometheus text format (version 0.0.4);
//! * `GET /health`    — liveness, always `200 ok`;
//! * `GET /ready`     — readiness: `503` while a containment fence is
//!   raised or a repair is executing (the caller injects the predicate);
//! * `GET /incidents` — incident-timeline JSON;
//! * `GET /quit`      — optional remote shutdown for bench/CI drivers
//!   (off unless [`ServerRoutes::allow_quit`] is set).
//!
//! The telemetry crate cannot see proxy or repair types, so every data
//! source is injected as a closure by the embedding layer.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::MetricsSnapshot;
use crate::prometheus::to_prometheus;

type SnapshotFn = dyn Fn() -> MetricsSnapshot + Send + Sync;
type ReadyFn = dyn Fn() -> bool + Send + Sync;
type IncidentsFn = dyn Fn() -> String + Send + Sync;

/// Injected data sources for the endpoint routes.
pub struct ServerRoutes {
    metrics: Box<SnapshotFn>,
    ready: Box<ReadyFn>,
    incidents: Box<IncidentsFn>,
    allow_quit: bool,
}

impl std::fmt::Debug for ServerRoutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerRoutes")
            .field("allow_quit", &self.allow_quit)
            .finish_non_exhaustive()
    }
}

impl Default for ServerRoutes {
    fn default() -> Self {
        ServerRoutes {
            metrics: Box::new(MetricsSnapshot::default),
            ready: Box::new(|| true),
            incidents: Box::new(|| "{\"incidents\":[]}".to_string()),
            allow_quit: false,
        }
    }
}

impl ServerRoutes {
    /// Start from always-ready, empty defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Source of the `/metrics` snapshot.
    pub fn metrics(mut self, f: impl Fn() -> MetricsSnapshot + Send + Sync + 'static) -> Self {
        self.metrics = Box::new(f);
        self
    }

    /// Readiness predicate for `/ready` (false ⇒ `503`).
    pub fn ready(mut self, f: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        self.ready = Box::new(f);
        self
    }

    /// Source of the `/incidents` JSON document.
    pub fn incidents(mut self, f: impl Fn() -> String + Send + Sync + 'static) -> Self {
        self.incidents = Box::new(f);
        self
    }

    /// Allow `GET /quit` to stop the server remotely.
    pub fn allow_quit(mut self, allow: bool) -> Self {
        self.allow_quit = allow;
        self
    }
}

/// A running metrics endpoint. Dropping it stops the accept loop and
/// joins the server thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
    /// the routes from a background thread.
    pub fn serve(addr: &str, routes: ServerRoutes) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => handle_connection(stream, &routes, &stop_flag),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        });
        Ok(MetricsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once the accept loop has been asked to stop (e.g. via
    /// `/quit`).
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Stop the accept loop and join the server thread.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    /// Block until the accept loop exits (a `/quit` request or
    /// [`MetricsServer::shutdown`] from another handle).
    pub fn join(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Connections are served one at a time, so a request gets this long in
/// total (not per read) before the next client's turn.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

fn handle_connection(mut stream: TcpStream, routes: &ServerRoutes, stop: &AtomicBool) {
    let _ = stream.set_write_timeout(Some(REQUEST_DEADLINE));
    let Some(path) = read_request_path(&mut stream) else {
        return;
    };
    let (status, content_type, body) = match path.as_str() {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            to_prometheus(&(routes.metrics)()),
        ),
        "/health" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        "/ready" => {
            if (routes.ready)() {
                ("200 OK", "text/plain; charset=utf-8", "ready\n".to_string())
            } else {
                (
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "not ready\n".to_string(),
                )
            }
        }
        "/incidents" => (
            "200 OK",
            "application/json; charset=utf-8",
            (routes.incidents)(),
        ),
        "/quit" if routes.allow_quit => {
            stop.store(true, Ordering::Relaxed);
            ("200 OK", "text/plain; charset=utf-8", "bye\n".to_string())
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Read the request head and return the GET path (query string
/// stripped), or `None` for anything we do not serve — including a head
/// that has not arrived in full by [`REQUEST_DEADLINE`], however steadily
/// the client dribbles bytes.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        let remaining = deadline.checked_duration_since(Instant::now())?;
        // A zero timeout would mean "block forever".
        stream
            .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
            .ok()?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
        if buf.len() > 16 * 1024 {
            return None;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next()?.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    if method != "GET" {
        return None;
    }
    let path = target.split('?').next().unwrap_or(target);
    Some(path.to_string())
}

/// The client side of the endpoint: one `GET path` against `addr`,
/// returning the status code and body. `resildb-top` and the tests scrape
/// through this.
///
/// # Errors
///
/// Connection, I/O and timeout failures; a response without an HTTP/1.1
/// status line is `InvalidData`.
pub fn get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        super::get(addr, path).expect("GET")
    }

    #[test]
    fn serves_metrics_health_ready_and_incidents() {
        let reg = MetricsRegistry::new();
        reg.counter("engine.commit.count").add(5);
        let ready = Arc::new(AtomicBool::new(false));
        let ready_flag = Arc::clone(&ready);
        let routes = ServerRoutes::new()
            .metrics(move || reg.snapshot())
            .ready(move || ready_flag.load(Ordering::Relaxed))
            .incidents(|| "{\"incidents\":[{\"id\":1}]}".to_string());
        let server = MetricsServer::serve("127.0.0.1:0", routes).expect("bind");
        let addr = server.addr();

        let (status, body) = get(addr, "/health");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE resildb_engine_commit_count_total counter"));
        assert!(body.contains("resildb_engine_commit_count_total 5\n"));

        // /ready flips 503 → 200 with the injected predicate (the fence
        // raise/lift path in the integration tests).
        let (status, _) = get(addr, "/ready");
        assert_eq!(status, 503);
        ready.store(true, Ordering::Relaxed);
        let (status, body) = get(addr, "/ready");
        assert_eq!((status, body.as_str()), (200, "ready\n"));

        let (status, body) = get(addr, "/incidents");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"incidents\":[{\"id\":1}]}");

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        // /quit is rejected unless explicitly allowed.
        let (status, _) = get(addr, "/quit");
        assert_eq!(status, 404);
        assert!(!server.is_stopped());
    }

    #[test]
    fn quit_stops_the_server_when_allowed() {
        let mut server = MetricsServer::serve("127.0.0.1:0", ServerRoutes::new().allow_quit(true))
            .expect("bind");
        let addr = server.addr();
        let (status, body) = get(addr, "/quit");
        assert_eq!((status, body.as_str()), (200, "bye\n"));
        server.join();
        assert!(server.is_stopped());
    }

    #[test]
    fn dribbling_client_cannot_hold_the_endpoint_past_the_request_deadline() {
        let server = MetricsServer::serve("127.0.0.1:0", ServerRoutes::new()).expect("bind");
        let addr = server.addr();
        // A hostile client: one byte of a never-finished request every
        // 100 ms, which resets a per-read timeout forever.
        let connected = Arc::new(std::sync::Barrier::new(2));
        let dribbler = {
            let connected = Arc::clone(&connected);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                connected.wait();
                for byte in b"GET /metrics HTTP/1.1\r\nX-Slow: ".iter().cycle().take(60) {
                    if stream.write_all(&[*byte]).is_err() {
                        break; // the server hung up on us: the point
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        };
        connected.wait();
        let asked = Instant::now();
        let (status, _) = get(addr, "/health");
        let waited = asked.elapsed();
        assert_eq!(status, 200);
        assert!(
            waited < Duration::from_secs(3),
            "/health waited {waited:?} behind a dribbling client"
        );
        dribbler.join().expect("dribbler");
    }
}
