//! The standalone plan server: socket daemon, remote client, and the
//! client-side L1 plan cache.
//!
//! [`PlanService`] amortizes planning across tenants *in one process*; this
//! module promotes it to a cross-process daemon so one warm plan cache,
//! grouping memo and admission gate serve a whole fleet of training sessions:
//!
//! ```text
//!   TrainingSession ──▶ PlanClient ──frame──▶ PlanServer ──▶ PlanService
//!                        │  L1 cache            bounded        │ admission
//!                        │  (per-tenant,        thread-per-    │ coalescing
//!                        │   LRU + drift        connection     │ backend registry
//!                        │   eviction)          pool           ▼
//!                        ▼                                   shared L2 cache
//!                      hit ⇒ no syscall                     (sharded LRU)
//! ```
//!
//! * [`PlanServer`] — a blocking `TcpListener` / Unix-socket daemon.  Each
//!   accepted connection is served by its own thread out of a bounded pool
//!   ([`ServerConfig::max_connections`]); requests decode into the same
//!   [`KeyedRequest`] the in-process service keys on and route through the
//!   existing admission gate, coalescer, backend registry and sharded L2
//!   cache via [`PlanService::plan_backend`].  A malformed payload gets a
//!   typed [`ServiceError::Transport`] response (connection survives), and
//!   so does a response over [`ServerConfig::max_frame_len`], naming its
//!   size and the cap; a framing violation closes the connection; a planner
//!   panic is caught and answered with [`ServiceError::Internal`].
//! * [`PlanClient`] — the tenant-side handle.  It implements
//!   [`PlanTransport`], so `TrainingSession::with_service` drives the daemon
//!   through exactly the interface it uses for an in-process service, and
//!   keeps a per-tenant **L1 cache** in front of the shared L2.  A hit needs
//!   the whole request to match, snapshot included, so a cached plan is
//!   never stale; the L1 is bounded by entry count (LRU, 128 entries) and
//!   **drift-evicts** — every call drops entries whose snapshot has shifted
//!   more than 5% (the paper's replan trigger) relative to the live snapshot
//!   being planned for.  Drift eviction only decides which old entries stay
//!   resident: an entry for another snapshot could never be served for the
//!   live one anyway.  Any framing or I/O error on its connection closes
//!   it, and every later call fails with a typed error instead of reading
//!   another request's answer.
//! * Wire format: `malleus_wire` frames (`MWIR` magic + version + payload
//!   length); the request payload is a [`KeyedRequest`]
//!   (`backend_fingerprint = 0` — advisory, the daemon recomputes it from
//!   its own registered constructor), the response a [`PlanResponse`].
//!   Both ends send a frame with one `write` and read through one buffer
//!   per connection, so a frame that has arrived costs one `read`.
//!
//! Determinism: the codec preserves `f64` bit patterns, so a plan served
//! over the socket is byte-identical to a direct `Planner::plan` call — the
//! facade's `tests/remote_equivalence.rs` proves it across the S1–S6
//! transitions.

// Request-serving code answers every failure with a typed error; tests may
// panic freely.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use crate::cache::PlanCache;
use crate::{KeyedRequest, PlanRequest, PlanService, PlanTransport, ServiceError};
use malleus_cluster::ClusterSnapshot;
use malleus_core::{lock_rank, BackendId, PlanOutcome, PlannedOutcome, RankedMutex};
use malleus_wire::{
    from_bytes, read_frame, read_frame_opt, wire_enum, wire_struct, write_frame, WireError,
    DEFAULT_MAX_FRAME_LEN,
};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;

// ---------------------------------------------------------------------------
// Wire formats of the service types, declared here because the codec crate
// must not depend on the service crate.  Each list is the v2 format: a
// reordered field or tag needs a `WIRE_VERSION` bump.
// ---------------------------------------------------------------------------

wire_struct!(PlanRequest {
    coeffs,
    snapshot,
    config
});
wire_struct!(KeyedRequest {
    backend,
    backend_fingerprint,
    request
});
wire_enum!(ServiceError {
    0 => Plan(err),
    1 => Overloaded { queue_depth, limit },
    2 => Internal { reason },
    3 => UnknownBackend { backend },
    4 => AdmissionTimeout { waited, timeout },
    5 => Transport { reason },
});

/// What the daemon answers every request frame with.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanResponse {
    /// The planned outcome (byte-identical to the in-process result).
    Outcome(PlannedOutcome),
    /// A typed service error (infeasibility, overload, timeout, transport).
    Error(ServiceError),
}

wire_enum!(PlanResponse {
    0 => Outcome(outcome),
    1 => Error(err),
});

// ---------------------------------------------------------------------------
// Shared stream/endpoint plumbing
// ---------------------------------------------------------------------------

/// Where a [`PlanServer`] listens (and what a [`PlanClient`] dials).
#[derive(Debug, Clone, PartialEq)]
pub enum Endpoint {
    /// TCP socket address (bind with port 0 for an ephemeral port).
    Tcp(SocketAddr),
    /// Unix domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// One established connection, transport-erased.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(stream, _)| Conn::Tcp(stream)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(stream, _)| Conn::Unix(stream)),
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Daemon knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Maximum connections served concurrently; the accept loop blocks (TCP
    /// backlog absorbs the burst) once the handler pool is full, so a
    /// connection flood cannot spawn unbounded threads.
    pub max_connections: usize,
    /// Frame-payload cap enforced on both read and write.
    pub max_frame_len: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// Bounded handler-thread pool: `acquire` blocks the accept loop while
/// `max_connections` handlers are live; each handler releases its slot on
/// exit (including panics) via the guard's `Drop`.
#[derive(Debug)]
struct ConnSlots {
    limit: usize,
    live: RankedMutex<usize>,
    freed: Condvar,
}

impl ConnSlots {
    fn new(limit: usize) -> Self {
        Self {
            limit: limit.max(1),
            live: RankedMutex::new(lock_rank::CONN_SLOTS_LIVE, "ConnSlots.live", 0),
            freed: Condvar::new(),
        }
    }

    fn acquire(self: &Arc<Self>) -> SlotGuard {
        let mut live = self.live.lock();
        while *live >= self.limit {
            live = self.live.wait(&self.freed, live);
        }
        *live += 1;
        SlotGuard(Arc::clone(self))
    }
}

#[derive(Debug)]
struct SlotGuard(Arc<ConnSlots>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        *self.0.live.lock() -= 1;
        self.0.freed.notify_all();
    }
}

/// The standalone plan daemon.  Binding spawns the accept loop immediately;
/// dropping the server (or calling [`PlanServer::shutdown`]) stops accepting
/// and joins the accept thread.  In-flight connections finish serving their
/// current request and exit when their peer hangs up.
#[derive(Debug)]
pub struct PlanServer {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl PlanServer {
    /// Bind a TCP daemon (use `"127.0.0.1:0"` for an ephemeral port; read it
    /// back with [`PlanServer::tcp_addr`]).
    pub fn bind_tcp(
        service: Arc<PlanService>,
        addr: &str,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let endpoint = Endpoint::Tcp(listener.local_addr()?);
        Self::spawn(service, Listener::Tcp(listener), endpoint, config)
    }

    /// Bind a Unix-domain-socket daemon (an existing socket file at `path` is
    /// replaced).
    #[cfg(unix)]
    pub fn bind_unix(
        service: Arc<PlanService>,
        path: impl Into<PathBuf>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let path = path.into();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Self::spawn(
            service,
            Listener::Unix(listener),
            Endpoint::Unix(path),
            config,
        )
    }

    fn spawn(
        service: Arc<PlanService>,
        listener: Listener,
        endpoint: Endpoint,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let slots = Arc::new(ConnSlots::new(config.max_connections));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("malleus-plan-server".into())
                .spawn(move || loop {
                    let conn = match listener.accept() {
                        Ok(conn) => conn,
                        Err(_) if stop.load(Ordering::SeqCst) => return,
                        Err(_) => continue,
                    };
                    if stop.load(Ordering::SeqCst) {
                        // The shutdown poke (or a straggler client) landed;
                        // drop it and exit.
                        return;
                    }
                    let guard = slots.acquire();
                    let service = Arc::clone(&service);
                    let max_frame_len = config.max_frame_len;
                    let _ = std::thread::Builder::new()
                        .name("malleus-plan-conn".into())
                        .spawn(move || {
                            let _slot = guard;
                            serve_connection(&service, conn, max_frame_len);
                        });
                })?
        };
        Ok(Self {
            endpoint,
            stop,
            accept: Some(accept),
        })
    }

    /// Where the daemon is listening.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The bound TCP address, when listening on TCP.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.endpoint {
            Endpoint::Tcp(addr) => Some(*addr),
            #[cfg(unix)]
            _ => None,
        }
    }

    /// Stop accepting connections and join the accept thread.  Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Poke the blocking accept() so the loop observes the stop flag.
        match &self.endpoint {
            Endpoint::Tcp(addr) => {
                let _ = TcpStream::connect(addr);
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for PlanServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one connection until the peer hangs up or the framing breaks.
fn serve_connection(service: &PlanService, conn: Conn, max_frame_len: usize) {
    if let Conn::Tcp(stream) = &conn {
        // Request/response is strictly ping-pong; Nagle only adds latency.
        let _ = stream.set_nodelay(true);
    }
    let mut conn = BufReader::new(conn);
    loop {
        let payload = match read_frame_opt(&mut conn, max_frame_len) {
            Ok(Some(payload)) => payload,
            // Clean EOF before a header: the client is done.
            Ok(None) => return,
            // A framing violation (bad magic, foreign version, oversized or
            // truncated frame) means the stream can no longer be trusted to
            // be frame-aligned; close it.
            Err(_) => return,
        };
        let response = match from_bytes::<KeyedRequest>(&payload) {
            Ok(keyed) => {
                // The client's fingerprint is advisory; plan_backend derives
                // the authoritative one from its own registered constructor.
                match catch_unwind(AssertUnwindSafe(|| {
                    service.plan_backend(keyed.backend, &keyed.request)
                })) {
                    Ok(Ok(outcome)) => PlanResponse::Outcome((*outcome).clone()),
                    Ok(Err(err)) => PlanResponse::Error(err),
                    Err(_) => PlanResponse::Error(ServiceError::Internal {
                        reason: "planning panicked while serving a remote request".into(),
                    }),
                }
            }
            // The frame was well-formed but the payload was not a request:
            // answer with a typed error and keep the (still frame-aligned)
            // connection.
            Err(err) => PlanResponse::Error(ServiceError::Transport {
                reason: format!("malformed request payload: {err}"),
            }),
        };
        let written = match write_frame(conn.get_mut(), &response, max_frame_len) {
            // A refused response wrote nothing, so the stream is still
            // frame-aligned: answer with a typed error instead.
            Err(WireError::Oversized { len, cap }) => {
                let refusal = PlanResponse::Error(ServiceError::Transport {
                    reason: format!("response of {len} bytes exceeds the server's frame cap {cap}"),
                });
                write_frame(conn.get_mut(), &refusal, max_frame_len)
            }
            written => written,
        };
        // The peer is gone, or even the refusal did not fit.
        if written.is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Client + L1 cache
// ---------------------------------------------------------------------------

/// Maximum entries in a client's L1 cache.
const L1_CAPACITY: usize = 128;

/// Drift-eviction threshold: cached entries whose snapshot has shifted more
/// than this (relative, per GPU) against the live snapshot being planned for
/// are evicted before lookup.  This frees room, not correctness: a hit needs
/// the exact snapshot, so a drifted entry could not be served anyway.  The
/// paper replans at 5%.
const DRIFT_THRESHOLD: f64 = 0.05;

/// Client-side knobs: the transport cap.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientConfig {
    /// Frame-payload cap enforced on both read and write.
    pub max_frame_len: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// Counters of the client's L1 tier.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct L1Stats {
    /// L1 lookups.
    pub requests: u64,
    /// Lookups answered locally (no socket roundtrip).
    pub hits: u64,
    /// Lookups that went to the daemon.
    pub misses: u64,
    /// Entries evicted because their snapshot drifted past the threshold.
    pub drift_evicted: u64,
    /// Entries displaced by capacity LRU eviction.
    pub evictions: u64,
    /// Entries currently resident.
    pub resident: usize,
}

impl L1Stats {
    /// Fraction of lookups answered locally.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// The per-tenant L1 plan cache and its counters, under one mutex (one
/// tenant, low fan-in).  `resident` is read off the cache.
#[derive(Debug)]
struct L1Cache {
    inner: RankedMutex<(PlanCache, L1Stats)>,
}

impl L1Cache {
    fn new() -> Self {
        let cache = PlanCache::new(L1_CAPACITY);
        Self {
            inner: RankedMutex::new(
                lock_rank::L1_CACHE_INNER,
                "L1Cache.inner",
                (cache, L1Stats::default()),
            ),
        }
    }

    /// Evict every entry whose snapshot has drifted past [`DRIFT_THRESHOLD`]
    /// relative to the live snapshot (structural changes — different GPU
    /// count or availability — always count as drifted).
    fn invalidate_drifted(&self, live: &ClusterSnapshot) {
        let mut inner = self.inner.lock();
        let (cache, stats) = &mut *inner;
        stats.drift_evicted += cache.retain(|request| {
            let snapshot = &request.request.snapshot;
            let stale = !snapshot.same_structure(live)
                || snapshot.max_relative_shift(live) > DRIFT_THRESHOLD;
            !stale
        });
    }

    fn get(&self, key: u64, keyed: &KeyedRequest) -> Option<Arc<PlannedOutcome>> {
        let mut inner = self.inner.lock();
        let (cache, stats) = &mut *inner;
        let hit = cache.get(key, keyed);
        stats.requests += 1;
        match &hit {
            Some(_) => stats.hits += 1,
            None => stats.misses += 1,
        }
        hit
    }

    fn insert(&self, key: u64, request: KeyedRequest, outcome: Arc<PlannedOutcome>) {
        let mut inner = self.inner.lock();
        let (cache, stats) = &mut *inner;
        stats.evictions += cache.insert(key, request, outcome);
    }

    fn stats(&self) -> L1Stats {
        let inner = self.inner.lock();
        let (cache, stats) = &*inner;
        L1Stats {
            resident: cache.len(),
            ..*stats
        }
    }
}

fn transport_error(what: impl std::fmt::Display) -> ServiceError {
    ServiceError::Transport {
        reason: what.to_string(),
    }
}

/// Remote handle to a [`PlanServer`].  One persistent connection, serialized
/// ping-pong framing under a mutex; clone-free sharing via `Arc<PlanClient>`.
/// Implements [`PlanTransport`], so `TrainingSession::with_service` and
/// `replan_overlapped_shared` drive it exactly like an in-process service.
#[derive(Debug)]
pub struct PlanClient {
    endpoint: Endpoint,
    /// The connection behind its read buffer; `None` once a transport error
    /// left the stream no longer known to be frame-aligned.
    stream: RankedMutex<Option<BufReader<Conn>>>,
    l1: L1Cache,
    config: ClientConfig,
}

impl PlanClient {
    /// Connect to a TCP daemon.
    pub fn connect_tcp(addr: SocketAddr, config: ClientConfig) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self::new(Endpoint::Tcp(addr), Conn::Tcp(stream), config))
    }

    /// Connect to a Unix-domain-socket daemon.
    #[cfg(unix)]
    pub fn connect_unix(path: impl Into<PathBuf>, config: ClientConfig) -> io::Result<Self> {
        let path = path.into();
        let stream = UnixStream::connect(&path)?;
        Ok(Self::new(Endpoint::Unix(path), Conn::Unix(stream), config))
    }

    fn new(endpoint: Endpoint, conn: Conn, config: ClientConfig) -> Self {
        Self {
            endpoint,
            stream: RankedMutex::new(
                lock_rank::PLAN_CLIENT_STREAM,
                "PlanClient.stream",
                Some(BufReader::new(conn)),
            ),
            l1: L1Cache::new(),
            config,
        }
    }

    /// The daemon this client is connected to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Counters of the local L1 tier.
    pub fn l1_stats(&self) -> L1Stats {
        self.l1.stats()
    }

    /// Plan through the daemon with L1-over-L2 caching: drifted entries are
    /// evicted against `request.snapshot` (the live cluster), then a
    /// confirmed L1 hit short-circuits the socket entirely; otherwise one
    /// framed roundtrip hits the daemon's shared L2/planner and the response
    /// lands in L1.
    pub fn plan_backend(
        &self,
        backend: BackendId,
        request: &PlanRequest,
    ) -> Result<Arc<PlannedOutcome>, ServiceError> {
        // The snapshot being planned for IS the live cluster state.  An
        // entry for any other snapshot can never hit (a hit needs the exact
        // snapshot); the ones that drifted past the paper's replan trigger
        // are unlikely to be asked for again, so they give up their slots.
        self.l1.invalidate_drifted(&request.snapshot);
        let keyed = KeyedRequest {
            backend,
            // Advisory on the wire: the daemon recomputes the authoritative
            // fingerprint from its own constructor.  L1 keying is consistent
            // because every entry of this client uses the same convention.
            backend_fingerprint: 0,
            request: request.clone(),
        };
        let key = keyed.key();
        if let Some(outcome) = self.l1.get(key, &keyed) {
            return Ok(outcome);
        }
        let payload = self.roundtrip(&keyed)?;
        match from_bytes::<PlanResponse>(&payload).map_err(transport_error)? {
            PlanResponse::Outcome(outcome) => {
                let outcome = Arc::new(outcome);
                self.l1.insert(key, keyed, Arc::clone(&outcome));
                Ok(outcome)
            }
            PlanResponse::Error(err) => Err(err),
        }
    }

    /// Malleus convenience route (the remote analogue of
    /// [`PlanService::plan`]).
    pub fn plan(&self, request: &PlanRequest) -> Result<Arc<PlanOutcome>, ServiceError> {
        let planned = self.plan_backend(BackendId::Malleus, request)?;
        planned
            .malleus
            .clone()
            .ok_or_else(|| ServiceError::Internal {
                reason: "Malleus backend produced an outcome without a PlanOutcome".into(),
            })
    }

    fn roundtrip(&self, keyed: &KeyedRequest) -> Result<Vec<u8>, ServiceError> {
        let mut stream = self.stream.lock();
        // A request that panicked mid-frame leaves the stream desynchronised:
        // fail closed instead of reading another request's bytes.
        if self.stream.is_poisoned() {
            return Err(transport_error(
                "client connection poisoned by a panicked request",
            ));
        }
        let Some(conn) = stream.as_mut() else {
            return Err(transport_error(
                "client connection closed by an earlier transport error",
            ));
        };
        let cap = self.config.max_frame_len;
        let response = match write_frame(conn.get_mut(), keyed, cap) {
            Ok(()) => read_frame(conn, cap),
            // Refused before any byte was sent: the stream is still aligned.
            Err(err @ WireError::Oversized { .. }) => return Err(transport_error(err)),
            Err(err) => Err(err),
        };
        // Any other failure may leave part of a frame behind (the unread
        // rest of a refused response, a partial write), so a later call
        // could read one request's answer as another's: close the
        // connection and fail every later call.
        response.map_err(|err| {
            *stream = None;
            transport_error(err)
        })
    }
}

impl PlanTransport for PlanClient {
    fn plan_routed(
        &self,
        backend: BackendId,
        request: &PlanRequest,
    ) -> Result<Arc<PlannedOutcome>, ServiceError> {
        self.plan_backend(backend, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use malleus_cluster::{Cluster, GpuId};
    use malleus_core::{
        LatticeEntry, Parallelism, ParallelizationPlan, PipelinePlan, PlanError, PlanTiming,
        PlannerConfig, ScoredLattice, StagePlan, TpGroup,
    };
    use malleus_model::{HardwareParams, MemoryModel, ModelSpec, ProfiledCoefficients};
    use malleus_wire::to_bytes;
    use std::time::Duration;

    /// Every socket read in these tests is bounded, so a regression fails
    /// instead of hanging the suite.
    const READ_TIMEOUT: Duration = Duration::from_secs(20);

    fn small_request(rate_on_gpu3: f64) -> PlanRequest {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_7b(), HardwareParams::a800_cluster());
        let mut cluster = Cluster::homogeneous(1, 8);
        if rate_on_gpu3 > 1.0 {
            cluster.set_rate(GpuId(3), rate_on_gpu3);
        }
        PlanRequest::new(
            coeffs,
            cluster.snapshot(),
            PlannerConfig {
                global_batch_size: 8,
                ..PlannerConfig::default()
            },
        )
    }

    /// The paper's 110B testbed under Normal: 8 nodes × 8 GPUs, B = 64.
    fn paper_110b_request() -> PlanRequest {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_110b(), HardwareParams::a800_cluster());
        PlanRequest::new(
            coeffs,
            Cluster::homogeneous(8, 8).snapshot(),
            PlannerConfig {
                global_batch_size: 64,
                parallelism: Parallelism::Fixed(1),
                ..PlannerConfig::default()
            },
        )
    }

    fn keyed(request: PlanRequest) -> KeyedRequest {
        KeyedRequest {
            backend: BackendId::Malleus,
            backend_fingerprint: 0,
            request,
        }
    }

    fn spawn_server() -> (Arc<PlanService>, PlanServer, SocketAddr) {
        spawn_server_with(ServerConfig::default())
    }

    fn spawn_server_with(config: ServerConfig) -> (Arc<PlanService>, PlanServer, SocketAddr) {
        let service = Arc::new(PlanService::new(ServiceConfig::default()));
        let server =
            PlanServer::bind_tcp(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
        let addr = server.tcp_addr().expect("tcp endpoint");
        (service, server, addr)
    }

    /// A client whose socket reads time out.
    fn connect(addr: SocketAddr, config: ClientConfig) -> PlanClient {
        let client = PlanClient::connect_tcp(addr, config).expect("connect");
        if let Some(Conn::Tcp(stream)) = client.stream.lock().as_ref().map(BufReader::get_ref) {
            stream
                .set_read_timeout(Some(READ_TIMEOUT))
                .expect("timeout");
        }
        client
    }

    /// A raw connection, buffered for `read_frame`, whose reads time out.
    fn connect_raw(addr: SocketAddr) -> BufReader<TcpStream> {
        let raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(READ_TIMEOUT)).expect("timeout");
        BufReader::new(raw)
    }

    /// One value of every `ServiceError` variant.
    fn every_service_error() -> [ServiceError; 6] {
        [
            ServiceError::Plan(PlanError::NoUsableGpus),
            ServiceError::Overloaded {
                queue_depth: 9,
                limit: 8,
            },
            ServiceError::Internal {
                reason: "boom".into(),
            },
            ServiceError::UnknownBackend {
                backend: BackendId::DeepSpeedRestart,
            },
            ServiceError::AdmissionTimeout {
                waited: Duration::from_millis(1501),
                timeout: Duration::from_millis(1500),
            },
            ServiceError::Transport {
                reason: "reset".into(),
            },
        ]
    }

    #[test]
    fn service_types_roundtrip_on_the_wire() {
        let request = small_request(2.57);
        let back: PlanRequest = from_bytes(&to_bytes(&request)).unwrap();
        assert_eq!(back, request);
        assert_eq!(back.key(), request.key());

        let keyed = KeyedRequest {
            backend: BackendId::Oobleck,
            backend_fingerprint: 0xfeed,
            request,
        };
        let back: KeyedRequest = from_bytes(&to_bytes(&keyed)).unwrap();
        assert_eq!(back, keyed);
        assert_eq!(back.key(), keyed.key());

        for err in every_service_error() {
            let back: ServiceError = from_bytes(&to_bytes(&err)).unwrap();
            assert_eq!(back, err);
            let response = PlanResponse::Error(err);
            let back: PlanResponse = from_bytes(&to_bytes(&response)).unwrap();
            assert_eq!(back, response);
        }
        assert_eq!(
            from_bytes::<PlanResponse>(&[9]),
            Err(WireError::UnknownTag {
                what: "PlanResponse",
                tag: 9
            })
        );
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A request with every field set by hand, none from a default.
    fn golden_request() -> PlanRequest {
        let spec = ModelSpec {
            name: "m".into(),
            num_layers: 2,
            hidden_size: 3,
            ffn_hidden_size: 4,
            num_heads: 5,
            num_kv_heads: 6,
            vocab_size: 7,
            seq_len: 8,
        };
        let hardware = HardwareParams {
            gpu_peak_flops: 1.0,
            achievable_flops_fraction: 0.5,
            gpu_memory_bytes: 2.0,
            memory_reserve_bytes: 0.25,
            intra_node_bandwidth: 4.0,
            inter_node_bandwidth: 8.0,
            collective_latency: 0.125,
            checkpoint_bandwidth: 16.0,
            restart_init_seconds: 32.0,
        };
        let memory = MemoryModel {
            activation_bytes_per_token_per_hidden: 3.0,
            backward_peak_factor: 1.5,
            param_and_grad_bytes_per_param: 6.0,
            optimizer_bytes_per_param: 12.0,
        };
        PlanRequest::new(
            ProfiledCoefficients {
                spec,
                hardware,
                memory,
            },
            ClusterSnapshot {
                num_nodes: 1,
                node_of: vec![0, 0],
                rates: vec![1.0, 2.5],
            },
            PlannerConfig {
                global_batch_size: 8,
                candidate_tp_degrees: vec![1, 2],
                candidate_micro_batch_sizes: vec![1],
                candidate_dp: Some(vec![2]),
                fixed_dp: None,
                straggler_threshold: 1.0625,
                enable_group_splitting: true,
                nonuniform_layers: true,
                nonuniform_data: false,
                nonuniform_stages: true,
                parallelism: Parallelism::Fixed(2),
                incremental: true,
            },
        )
    }

    /// An outcome with a Malleus plan, a hand-set timing (a planner's own is
    /// wall-clock) and a one-entry lattice.
    fn golden_outcome() -> PlannedOutcome {
        let plan = ParallelizationPlan {
            pipelines: vec![PipelinePlan {
                stages: vec![StagePlan {
                    group: TpGroup {
                        gpus: vec![GpuId(0), GpuId(1)],
                    },
                    layers: 2,
                }],
                num_micro_batches: 4,
            }],
            micro_batch_size: 1,
            removed_gpus: vec![GpuId(2)],
        };
        let lattice = ScoredLattice {
            entries: vec![LatticeEntry {
                max_tp: 2,
                dp: 1,
                micro_batch: 1,
                nonuniform_division: true,
                estimated_step_time: Some(2.0),
                reused: false,
            }],
            reused: 0,
            evaluated: 1,
            delta: false,
        };
        let malleus = PlanOutcome {
            plan: plan.clone(),
            estimated_step_time: 2.0,
            estimated_step_time_simplified: 1.5,
            chosen_tp: 2,
            dp: 1,
            timing: PlanTiming {
                grouping: Duration::new(1, 2),
                division: Duration::new(3, 4),
                ordering: Duration::new(5, 6),
                assignment: Duration::new(7, 8),
            },
            lattice: Some(Arc::new(lattice)),
        };
        PlannedOutcome {
            backend: BackendId::Malleus,
            plan: Some(plan),
            active_gpus: vec![GpuId(0), GpuId(1)],
            estimated_step_time: 2.0,
            transition_cost: 0.5,
            description: "d".into(),
            malleus: Some(Arc::new(malleus)),
        }
    }

    /// The bytes of [`golden_request`], one group of fields per line.
    const GOLDEN_REQUEST: &[&str] = &[
        // spec: name, num_layers
        "01000000000000006d02000000",
        // spec: hidden_size .. seq_len
        "03000000000000000400000000000000050000000000000006000000000000000700000000000000",
        "0800000000000000",
        // hardware
        "000000000000f03f000000000000e03f0000000000000040000000000000d03f0000000000001040",
        "0000000000002040000000000000c03f00000000000030400000000000004040",
        // memory
        "0000000000000840000000000000f83f00000000000018400000000000002840",
        // snapshot: num_nodes, node_of, rates
        "0100000000000000020000000000000000000000000000000200000000000000000000000000f03f",
        "0000000000000440",
        // config: global batch, TP degrees, micro-batch sizes
        "08000000000000000200000000000000010000000200000001000000000000000100000000000000",
        // config: candidate_dp, fixed_dp
        "010100000000000000020000000000000000",
        // config: threshold, four flags, parallelism, incremental
        "000000000000f13f0101000101020000000000000001",
    ];

    /// The bytes of `PlanResponse::Outcome(golden_outcome())`.
    const GOLDEN_OUTCOME: &[&str] = &[
        // tag Outcome, backend Malleus, Some(plan)
        "000001",
        // plan
        "01000000000000000100000000000000020000000000000000000000010000000200000004000000",
        "000000000100000000000000010000000000000002000000",
        // active_gpus
        "02000000000000000000000001000000",
        // estimated_step_time, transition_cost, description
        "0000000000000040000000000000e03f010000000000000064",
        // Some(malleus)
        "01",
        // malleus.plan
        "01000000000000000100000000000000020000000000000000000000010000000200000004000000",
        "000000000100000000000000010000000000000002000000",
        // estimates, chosen_tp, dp
        "0000000000000040000000000000f83f020000000100000000000000",
        // timing
        "01000000000000000200000003000000000000000400000005000000000000000600000007000000",
        "0000000008000000",
        // Some(lattice)
        "01010000000000000002000000010000000000000001000000000000000101000000000000004000",
        "0000000000000000010000000000000000",
    ];

    /// The v2 bytes of the service's frames, pinned.  A roundtrip cannot
    /// see a field list reordered in `encode` and `decode` together; these
    /// can.  A change here is a format change and needs a `WIRE_VERSION`
    /// bump.
    #[test]
    fn golden_service_encodings_are_pinned() {
        let request = golden_request();
        let request_hex = GOLDEN_REQUEST.concat();
        assert_eq!(hex(&to_bytes(&request)), request_hex);
        let keyed = KeyedRequest {
            backend: BackendId::Oobleck,
            backend_fingerprint: 0xfeed,
            request,
        };
        let keyed_hex = ["03", "edfe000000000000", &request_hex].concat();
        assert_eq!(hex(&to_bytes(&keyed)), keyed_hex);

        // The responses of `every_service_error()`, in order.
        let errors = [
            "010000",
            "010109000000000000000800000000000000",
            "01020400000000000000626f6f6d",
            "010305",
            "0104010000000000000040a7dc1d01000000000000000065cd1d",
            "010505000000000000007265736574",
        ];
        for (err, golden) in every_service_error().into_iter().zip(errors) {
            assert_eq!(hex(&to_bytes(&PlanResponse::Error(err))), golden);
        }
        let outcome = PlanResponse::Outcome(golden_outcome());
        assert_eq!(hex(&to_bytes(&outcome)), GOLDEN_OUTCOME.concat());
    }

    #[test]
    fn socket_path_serves_byte_identical_plans_and_l1_hits() {
        let (service, _server, addr) = spawn_server();
        let client = PlanClient::connect_tcp(addr, ClientConfig::default()).expect("connect");
        let request = small_request(1.0);

        let served = client
            .plan_backend(BackendId::Malleus, &request)
            .expect("remote plan");
        let direct = service
            .plan_backend(BackendId::Malleus, &request)
            .expect("direct plan");
        // Outcome equality leaves out the timing and the lattice; the
        // encodings cover them too.
        assert_eq!(to_bytes(served.as_ref()), to_bytes(direct.as_ref()));

        // Second identical call: answered from L1, no extra server request.
        let requests_before = service.metrics().requests;
        let again = client
            .plan_backend(BackendId::Malleus, &request)
            .expect("l1 hit");
        assert!(
            Arc::ptr_eq(&served, &again),
            "L1 returns the same allocation"
        );
        assert_eq!(service.metrics().requests, requests_before);
        let stats = client.l1_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.resident, 1);
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn drift_past_the_threshold_invalidates_l1_entries() {
        let (_service, _server, addr) = spawn_server();
        let client = PlanClient::connect_tcp(addr, ClientConfig::default()).expect("connect");
        let request = small_request(1.0);
        client
            .plan_backend(BackendId::Malleus, &request)
            .expect("warm the L1");
        assert_eq!(client.l1_stats().resident, 1);

        // Sub-threshold drift (< 5%): the cached entry survives.
        let mild = PlanRequest::new(
            request.coeffs.clone(),
            request.snapshot.with_rate(GpuId(3), 1.02),
            request.config.clone(),
        );
        client
            .plan_backend(BackendId::Malleus, &mild)
            .expect("mild drift plan");
        let stats = client.l1_stats();
        assert_eq!(stats.drift_evicted, 0, "2% drift must not invalidate");
        // The surviving entry is not served for the drifted snapshot: every
        // hit needs the exact request, so the mild request went to the daemon.
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.resident, 2);

        // A 20% straggler on the live cluster: both older entries are stale.
        let heavy = PlanRequest::new(
            request.coeffs.clone(),
            request.snapshot.with_rate(GpuId(3), 1.2),
            request.config.clone(),
        );
        client
            .plan_backend(BackendId::Malleus, &heavy)
            .expect("heavy drift plan");
        let stats = client.l1_stats();
        assert!(
            stats.drift_evicted >= 2,
            "drifted entries must be evicted, got {stats:?}"
        );
        assert_eq!(stats.resident, 1, "only the live-snapshot plan remains");
    }

    #[test]
    fn malformed_payload_gets_a_typed_error_and_the_connection_survives() {
        let (_service, _server, addr) = spawn_server();
        let mut raw = connect_raw(addr);

        // A well-framed payload that is not a KeyedRequest (backend tag 0xFF).
        write_frame(raw.get_mut(), &u8::MAX, DEFAULT_MAX_FRAME_LEN).unwrap();
        let payload = read_frame(&mut raw, DEFAULT_MAX_FRAME_LEN).expect("server responded");
        match from_bytes::<PlanResponse>(&payload).expect("typed response") {
            PlanResponse::Error(ServiceError::Transport { reason }) => {
                assert!(reason.contains("malformed"), "{reason}");
            }
            other => panic!("expected a Transport error, got {other:?}"),
        }

        // The same connection still serves a valid request afterwards.
        write_frame(
            raw.get_mut(),
            &keyed(small_request(1.0)),
            DEFAULT_MAX_FRAME_LEN,
        )
        .unwrap();
        let payload = read_frame(&mut raw, DEFAULT_MAX_FRAME_LEN).expect("second response");
        match from_bytes::<PlanResponse>(&payload).expect("typed response") {
            PlanResponse::Outcome(outcome) => assert_eq!(outcome.backend, BackendId::Malleus),
            other => panic!("expected an outcome, got {other:?}"),
        }
    }

    #[test]
    fn two_request_frames_in_one_write_get_two_answers_in_order() {
        let (service, _server, addr) = spawn_server();
        let mut raw = connect_raw(addr);
        let requests = [small_request(1.0), small_request(2.57)];
        let mut frames = Vec::new();
        for request in &requests {
            write_frame(&mut frames, &keyed(request.clone()), DEFAULT_MAX_FRAME_LEN).unwrap();
        }
        raw.get_mut().write_all(&frames).unwrap();
        for request in &requests {
            let payload = read_frame(&mut raw, DEFAULT_MAX_FRAME_LEN).expect("response");
            let direct = service
                .plan_backend(BackendId::Malleus, request)
                .expect("in-process plan");
            assert_eq!(
                payload,
                to_bytes(&PlanResponse::Outcome((*direct).clone())),
                "answers arrive in request order, byte-identical to the in-process service"
            );
        }
    }

    /// A response over the server's cap is refused before any byte is
    /// written, so the connection stays frame-aligned: the client gets a
    /// typed error naming the size and the cap, and a later request on the
    /// same connection gets its own answer.  The cap sits between the 110B
    /// response (3,809 B) and the one-node 7B responses (1,973 and 2,501 B).
    #[test]
    fn oversized_response_gets_a_typed_error_and_the_connection_survives() {
        let cap = 3_000;
        let (service, _server, addr) = spawn_server_with(ServerConfig {
            max_frame_len: cap,
            ..ServerConfig::default()
        });
        let client = connect(addr, ClientConfig::default());
        let large = paper_110b_request();
        assert!(
            to_bytes(&keyed(large.clone())).len() <= cap,
            "the request fits"
        );
        match client.plan_backend(BackendId::Malleus, &large) {
            Err(ServiceError::Transport { reason }) => {
                assert!(
                    reason.contains("response of") && reason.contains(&format!("frame cap {cap}")),
                    "{reason}"
                );
            }
            other => panic!("expected a Transport error, got {other:?}"),
        }
        for request in [small_request(1.0), small_request(2.57)] {
            let served = client
                .plan_backend(BackendId::Malleus, &request)
                .expect("the connection survives the refusal");
            let direct = service
                .plan_backend(BackendId::Malleus, &request)
                .expect("in-process plan");
            assert_eq!(
                to_bytes(served.as_ref()),
                to_bytes(direct.as_ref()),
                "each later request gets its own answer"
            );
        }
    }

    /// A response over the client's cap leaves its payload in the stream;
    /// the client must close the connection instead of reading those bytes
    /// as the next frame.  The cap is below the 110B response (3,809 B).
    #[test]
    fn client_fails_closed_after_a_response_over_its_frame_cap() {
        let (service, _server, addr) = spawn_server();
        let cap = 2_000;
        let client = connect(addr, ClientConfig { max_frame_len: cap });
        let large = paper_110b_request();
        match client.plan_backend(BackendId::Malleus, &large) {
            Err(ServiceError::Transport { reason }) => {
                assert!(
                    reason.contains(&format!("exceeds the cap {cap}")),
                    "{reason}"
                );
            }
            other => panic!("expected a Transport error, got {other:?}"),
        }
        let requests_before = service.metrics().requests;
        for request in [small_request(1.0), large] {
            match client.plan_backend(BackendId::Malleus, &request) {
                Err(ServiceError::Transport { reason }) => {
                    assert!(reason.contains("closed"), "{reason}");
                }
                other => panic!("expected a closed connection, got {other:?}"),
            }
        }
        assert_eq!(service.metrics().requests, requests_before, "nothing sent");
        assert_eq!(client.l1_stats().resident, 0, "nothing cached");
    }

    #[test]
    fn framing_violations_close_the_connection() {
        let (_service, _server, addr) = spawn_server();
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(READ_TIMEOUT)).expect("timeout");
        // Garbage that is not a frame header.
        raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        raw.flush().unwrap();
        // The server must hang up without answering: either a clean FIN or a
        // reset (the kernel sends RST when unread bytes remain in the server's
        // receive buffer at close).
        let mut rest = Vec::new();
        match raw.read_to_end(&mut rest) {
            Ok(_) => assert!(rest.is_empty(), "no response bytes on a framing violation"),
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::ConnectionReset, "{err}"),
        }
    }

    #[test]
    fn remote_planner_errors_stay_typed() {
        let (_service, _server, addr) = spawn_server();
        let client = PlanClient::connect_tcp(addr, ClientConfig::default()).expect("connect");
        // Unregistered backend → UnknownBackend over the wire.
        let err = client
            .plan_backend(BackendId::Oobleck, &small_request(1.0))
            .expect_err("not registered");
        assert_eq!(
            err,
            ServiceError::UnknownBackend {
                backend: BackendId::Oobleck
            }
        );
        // Infeasible request → Plan error over the wire, and not cached.
        let mut infeasible = small_request(1.0);
        infeasible.config.candidate_micro_batch_sizes = vec![3];
        let err = client
            .plan_backend(BackendId::Malleus, &infeasible)
            .expect_err("infeasible");
        assert!(matches!(err, ServiceError::Plan(_)), "{err:?}");
        assert_eq!(client.l1_stats().resident, 0);
    }

    /// A request that panics while holding the connection may leave a
    /// half-written frame behind, so every later call must fail closed
    /// instead of reading another request's bytes.
    #[test]
    fn client_fails_closed_after_a_request_panics_mid_frame() {
        let (_service, _server, addr) = spawn_server();
        let client = PlanClient::connect_tcp(addr, ClientConfig::default()).expect("connect");
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _stream = client.stream.lock();
                panic!("request panicked mid-frame");
            })
            .join()
        });
        assert!(panicked.is_err());
        match client.plan(&small_request(2.57)) {
            Err(ServiceError::Transport { reason }) => assert!(reason.contains("poisoned")),
            other => panic!("expected a transport error, got {other:?}"),
        }
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_smoke() {
        let service = Arc::new(PlanService::new(ServiceConfig::default()));
        let path = std::env::temp_dir().join(format!(
            "malleus-plan-server-test-{}.sock",
            std::process::id()
        ));
        let mut server =
            PlanServer::bind_unix(Arc::clone(&service), &path, ServerConfig::default())
                .expect("bind unix");
        let client = PlanClient::connect_unix(&path, ClientConfig::default()).expect("connect");
        let request = small_request(1.0);
        let served = client.plan(&request).expect("remote plan over unix socket");
        let direct = service.plan(&request).expect("direct plan");
        assert_eq!(served, direct);
        server.shutdown();
        assert!(!path.exists(), "socket file removed on shutdown");
    }
}
