//! The networked transport backend: worker processes over
//! length-prefixed TCP or Unix-domain sockets.
//!
//! Topology is a star: the controller owns one listener and one socket
//! per worker; workers never connect to each other. Peer traffic (data
//! hand-off, state installs, epoch announcements) travels up the
//! sender's socket as a `FORWARD` frame and is relayed by the sender's
//! controller-side stub into the destination worker's inbox channel —
//! from where the destination's stub writes it down the other socket.
//! Two hops instead of one, but every existing coordinator wait, FIFO
//! argument and liveness check keeps working unchanged, because each
//! stub thread *is* its worker as far as the runtime can tell.
//!
//! Admission is asynchronous: a dedicated acceptor thread reads the
//! first frame of every inbound connection and routes it to the owning
//! stub — a `HELLO` (fresh worker, spawned by the controller *or*
//! joining from another machine under a shared-secret token) or a
//! `RESUME` (a surviving worker re-dialing after its socket died). Stubs
//! therefore handshake concurrently: a worker binary that dies before
//! its `HELLO` stalls only its own stub, never its siblings.
//!
//! A stub's socket is nonblocking in both directions, with a manual
//! outbound byte buffer. While that buffer is non-empty the stub does
//! not pull from its inbox — so the worker's credit gauge keeps
//! counting queued-but-unsent batches and injection backpressure works
//! exactly as in-process. Reads are drained before writes each turn,
//! so a reply can never be starved by bulk data: the two directions
//! cannot deadlock because every wait in the protocol is bounded.
//!
//! Socket death is *not* worker death. Each link runs a sequence-
//! numbered session (see [`crate::transport::session`]); on a cut the
//! stub parks outbound frames and waits out the [`ReconnectPolicy`]'s
//! window for the worker to `RESUME`, after which both sides replay
//! exactly the frames the other never delivered. Only when the window
//! expires — or when [`Transport::inject_fault`] deliberately poisons
//! the session before SIGKILLing the process, so a kill can never race
//! the reconnect — does the stub exit and checkpoint recovery take
//! over.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, TryRecvError};

use albic_types::NodeId;

use crate::codec::{Reader, Writer};
use crate::runtime::{
    send_gated, GaugeMap, Msg, RoutingShared, RuntimeConfig, SenderMap, PRESSURE_POLL,
    WORKER_SEND_PATIENCE,
};
use crate::transport::session::{
    ReconnectPolicy, RecvSequencer, SendSequencer, SeqVerdict, SEND_QUEUE_LIMIT,
};
use crate::transport::wire::{self, Correlator, FrameBuffer};
use crate::transport::{FailedSpawn, Peers, Transport, TransportError, WorkerMailbox, WorkerSpawn};

/// How long the controller waits for a worker process *it launched* to
/// connect and say hello. Joined workers get [`NetConfig::join_deadline`]
/// instead.
const HANDSHAKE_PATIENCE: Duration = Duration::from_secs(10);
/// How long [`Transport::worker_gone`] and shutdown wait for a child to
/// exit on its own before escalating to SIGKILL.
const REAP_PATIENCE: Duration = Duration::from_secs(5);
/// How long the acceptor waits for a new connection's first frame before
/// dropping it.
const ADMIT_PATIENCE: Duration = Duration::from_secs(2);
/// Socket read/write scratch size.
const IO_CHUNK: usize = 64 * 1024;
/// Per-turn cap on staged outbound bytes, so reads stay interleaved with
/// bulk writes.
const STAGE_LIMIT: usize = 256 * 1024;

/// Environment variable carrying the controller address a worker daemon
/// must connect back to (`tcp:host:port` or `uds:/path`).
pub(crate) const ENV_CONNECT: &str = "ALBIC_WORKER_CONNECT";
/// Environment variable carrying the node id the worker was launched for.
pub(crate) const ENV_NODE: &str = "ALBIC_WORKER_NODE";
/// Environment variable carrying the shared-secret join token (empty or
/// unset when the controller was configured without one).
pub(crate) const ENV_TOKEN: &str = "ALBIC_WORKER_TOKEN";

/// Monotonic counter making UDS socket paths unique within a process.
static UDS_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Which socket family the controller listens on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketKind {
    /// TCP on `127.0.0.1` (an OS-assigned port) unless
    /// [`NetConfig::listen`] says otherwise.
    Tcp,
    /// A Unix-domain socket under the system temp directory unless
    /// [`NetConfig::listen`] names a path.
    #[cfg(unix)]
    Uds,
}

/// Configuration for [`NetTransport`]: where the worker daemon binary
/// lives, which socket family to use, and the session policy (joining,
/// reconnection, compression).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Path to the worker daemon executable (a binary calling
    /// [`crate::transport::worker_main`]). Unused in join mode.
    pub worker_cmd: PathBuf,
    /// Socket family for the controller↔worker connections.
    pub kind: SocketKind,
    /// Explicit listen address: a `host:port` for TCP, a filesystem path
    /// for UDS. `None` picks an ephemeral one — fine when the controller
    /// launches every worker itself, useless for joining, since remote
    /// workers must be told where to dial.
    pub listen: Option<String>,
    /// Shared-secret join token. Every `HELLO`/`RESUME` must present it;
    /// launched workers inherit it via `ALBIC_WORKER_TOKEN`. Empty means no
    /// authentication (single-machine default).
    pub token: String,
    /// `Some(n)`: *join mode* — the controller launches nothing and
    /// instead admits `n` externally started workers (same daemon
    /// binary, pointed at `ALBIC_WORKER_CONNECT`). Must equal the job's cluster
    /// size.
    pub expected_workers: Option<usize>,
    /// How long each stub waits for its worker to join in join mode.
    pub join_deadline: Duration,
    /// Reconnect schedule applied by both peers of every worker link.
    pub reconnect: ReconnectPolicy,
    /// LZ4-compress state-migration and checkpoint payloads on the wire.
    pub compression: bool,
}

impl NetConfig {
    /// TCP-loopback config for the given worker binary.
    pub fn tcp(worker_cmd: impl Into<PathBuf>) -> Self {
        NetConfig {
            worker_cmd: worker_cmd.into(),
            kind: SocketKind::Tcp,
            listen: None,
            token: String::new(),
            expected_workers: None,
            join_deadline: Duration::from_secs(30),
            reconnect: ReconnectPolicy::default(),
            compression: false,
        }
    }

    /// Unix-domain-socket config for the given worker binary.
    #[cfg(unix)]
    pub fn uds(worker_cmd: impl Into<PathBuf>) -> Self {
        NetConfig {
            kind: SocketKind::Uds,
            ..NetConfig::tcp(worker_cmd)
        }
    }

    /// Listen on an explicit address (`host:port` for TCP, a path for
    /// UDS) instead of an ephemeral one.
    pub fn listen_on(mut self, addr: impl Into<String>) -> Self {
        self.listen = Some(addr.into());
        self
    }

    /// Require this shared-secret token in every `HELLO`/`RESUME`.
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.token = token.into();
        self
    }

    /// Join mode: admit `expected_workers` externally launched workers
    /// instead of spawning children.
    pub fn joinable(mut self, expected_workers: usize) -> Self {
        self.expected_workers = Some(expected_workers);
        self
    }

    /// How long to wait for each joining worker before degrading it to
    /// the crashed-worker path.
    pub fn join_deadline(mut self, deadline: Duration) -> Self {
        self.join_deadline = deadline;
        self
    }

    /// Override the reconnect schedule ([`ReconnectPolicy::none`]
    /// restores "socket death is worker death").
    pub fn reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = policy;
        self
    }

    /// Toggle LZ4 wire compression for state blobs.
    pub fn compressed(mut self, on: bool) -> Self {
        self.compression = on;
        self
    }
}

/// One connected worker socket, TCP or UDS, behind a common face.
pub(crate) enum Conn {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Conn {
    pub(crate) fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Conn::Uds(s) => Conn::Uds(s.try_clone()?),
        })
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(nb),
            #[cfg(unix)]
            Conn::Uds(s) => s.set_nonblocking(nb),
        }
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Conn::Uds(s) => s.set_read_timeout(t),
        }
    }

    /// Sever both directions without closing the descriptor — the kernel
    /// half of "kill the socket, not the process".
    pub(crate) fn shutdown(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            Conn::Uds(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Uds(s) => s.flush(),
        }
    }
}

/// Connect to a controller address of the form `tcp:host:port` or
/// `uds:/path` (the format [`NetTransport`] advertises via
/// `ALBIC_WORKER_CONNECT`).
pub(crate) fn connect(addr: &str) -> io::Result<Conn> {
    if let Some(hostport) = addr.strip_prefix("tcp:") {
        return Ok(Conn::Tcp(TcpStream::connect(hostport)?));
    }
    #[cfg(unix)]
    if let Some(path) = addr.strip_prefix("uds:") {
        return Ok(Conn::Uds(UnixStream::connect(path)?));
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("unsupported worker address {addr:?}"),
    ))
}

/// Read one complete frame off a blocking connection (the handshake and
/// daemon reader path). A read timeout surfaces as the underlying
/// `WouldBlock`/`TimedOut` error.
pub(crate) fn read_frame_blocking(
    conn: &mut Conn,
    fb: &mut FrameBuffer,
) -> io::Result<(u8, Vec<u8>)> {
    let mut buf = [0u8; IO_CHUNK];
    loop {
        if let Some(frame) = fb
            .next_frame()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            return Ok(frame);
        }
        let n = match conn.read(&mut buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        fb.extend(&buf[..n]);
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Uds(l) => l.accept().map(|(s, _)| Conn::Uds(s)),
        }
    }
}

/// Bind a UDS listener, probing a pre-existing socket file first: if
/// nothing accepts on it (connect refused), it is a leftover from a
/// controller that panicked or was SIGKILLed — unlink it and claim the
/// path. If something *does* accept, a live controller owns it.
#[cfg(unix)]
fn bind_uds(path: &std::path::Path) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => match UnixStream::connect(path) {
            Ok(_) => Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("{}: a live controller is bound", path.display()),
            )),
            Err(probe) if probe.kind() == io::ErrorKind::ConnectionRefused => {
                std::fs::remove_file(path)?;
                UnixListener::bind(path)
            }
            Err(_) => Err(e),
        },
        Err(e) => Err(e),
    }
}

/// A connection the acceptor routed to a stub.
enum Admission {
    /// A fresh worker's `HELLO` (launched or joining).
    Fresh { conn: Conn, fb: FrameBuffer },
    /// A surviving worker's `RESUME` after a socket cut.
    Resume {
        conn: Conn,
        fb: FrameBuffer,
        /// The worker's inbound delivery mark — resend after this.
        delivered: u64,
        /// The routing version the worker last installed.
        routing_version: u64,
    },
}

/// Per-worker record in the shared registry: how the acceptor reaches
/// the stub, the latest socket (for scripted drops), and the kill
/// poison.
struct NodeEntry {
    admit: mpsc::Sender<Admission>,
    /// Clone of the stub's current socket, so
    /// [`Transport::drop_connection`] can sever it from outside.
    conn: Option<Conn>,
    /// Set by [`Transport::inject_fault`] *before* the SIGKILL: the stub
    /// refuses to resume a poisoned session, so a kill deterministically
    /// defeats the reconnect policy instead of racing it.
    poisoned: Arc<AtomicBool>,
}

/// State shared between the transport, the acceptor thread, and every
/// stub.
struct NetShared {
    token: String,
    registry: StdMutex<HashMap<NodeId, NodeEntry>>,
    /// `HELLO`s that arrived before their stub registered (a joiner
    /// dialing in between listener bind and `spawn_worker`).
    parked: StdMutex<HashMap<NodeId, (Conn, FrameBuffer)>>,
    shutdown: AtomicBool,
}

impl NetShared {
    fn set_conn(&self, node: NodeId, conn: &Conn) {
        if let Ok(clone) = conn.try_clone() {
            if let Some(entry) = self.registry.lock().expect("registry lock").get_mut(&node) {
                entry.conn = Some(clone);
            }
        }
    }
}

/// The networked [`Transport`]: one worker process per node — launched
/// as a child or admitted as a joiner — bridged onto the runtime's
/// channel fabric by a per-worker stub thread running a resumable
/// session. Fault injection poisons the session and SIGKILLs the child:
/// a real crash, recovered through the same checkpoint/replay path as
/// in-process faults.
pub struct NetTransport {
    shared: Arc<NetShared>,
    acceptor: Option<JoinHandle<()>>,
    /// The address workers connect back to (also what `ALBIC_WORKER_CONNECT`
    /// carries).
    connect_addr: String,
    worker_cmd: PathBuf,
    expected_workers: Option<usize>,
    join_deadline: Duration,
    reconnect: ReconnectPolicy,
    compression: bool,
    children: HashMap<NodeId, Arc<StdMutex<Child>>>,
    /// Reply correlations, shared across every stub: a migration's reply
    /// registered while encoding for worker A resolves off worker B's
    /// socket.
    correlator: Arc<Correlator>,
    /// The UDS path to unlink on shutdown, if any.
    uds_path: Option<PathBuf>,
}

impl NetTransport {
    /// Bind the controller listener (TCP `127.0.0.1:0` or a fresh UDS
    /// path under the temp directory, unless [`NetConfig::listen`] names
    /// an address) and start the admission acceptor.
    pub fn new(cfg: NetConfig) -> io::Result<NetTransport> {
        let (listener, connect_addr, uds_path) = match cfg.kind {
            SocketKind::Tcp => {
                let l = TcpListener::bind(cfg.listen.as_deref().unwrap_or("127.0.0.1:0"))?;
                let addr = format!("tcp:{}", l.local_addr()?);
                (Listener::Tcp(l), addr, None)
            }
            #[cfg(unix)]
            SocketKind::Uds => {
                let path = match &cfg.listen {
                    Some(p) => PathBuf::from(p),
                    None => std::env::temp_dir().join(format!(
                        "albic-{}-{}.sock",
                        std::process::id(),
                        UDS_COUNTER.fetch_add(1, Ordering::Relaxed)
                    )),
                };
                let l = bind_uds(&path)?;
                let addr = format!("uds:{}", path.display());
                (Listener::Uds(l), addr, Some(path))
            }
        };
        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            #[cfg(unix)]
            Listener::Uds(l) => l.set_nonblocking(true)?,
        }
        let shared = Arc::new(NetShared {
            token: cfg.token,
            registry: StdMutex::new(HashMap::new()),
            parked: StdMutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("albic-acceptor".into())
            .spawn(move || acceptor_loop(listener, acceptor_shared))?;
        Ok(NetTransport {
            shared,
            acceptor: Some(acceptor),
            connect_addr,
            worker_cmd: cfg.worker_cmd,
            expected_workers: cfg.expected_workers,
            join_deadline: cfg.join_deadline,
            reconnect: cfg.reconnect,
            compression: cfg.compression,
            children: HashMap::new(),
            correlator: Arc::new(Correlator::new()),
            uds_path,
        })
    }

    /// The address workers dial (`tcp:host:port` or `uds:/path`). In
    /// join mode, point externally launched daemons here via
    /// `ALBIC_WORKER_CONNECT`.
    pub fn connect_addr(&self) -> &str {
        &self.connect_addr
    }

    /// Wait up to [`REAP_PATIENCE`] for a child to exit, then SIGKILL it;
    /// always reaps.
    fn reap(child: &Arc<StdMutex<Child>>) {
        let mut child = child.lock().expect("child lock");
        let deadline = Instant::now() + REAP_PATIENCE;
        loop {
            match child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break,
            }
        }
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Transport for NetTransport {
    fn spawn_worker(
        &mut self,
        spawn: WorkerSpawn,
    ) -> Result<JoinHandle<WorkerMailbox>, FailedSpawn> {
        let node = spawn.node;
        // Launch the child unless joiners are expected to dial in.
        let child = if self.expected_workers.is_none() {
            match Command::new(&self.worker_cmd)
                .env(ENV_CONNECT, &self.connect_addr)
                .env(ENV_NODE, node.raw().to_string())
                .env(ENV_TOKEN, &self.shared.token)
                .stdin(Stdio::null())
                .spawn()
            {
                Ok(c) => Some(Arc::new(StdMutex::new(c))),
                Err(e) => {
                    return Err(FailedSpawn {
                        error: TransportError::SpawnFailed {
                            node,
                            reason: format!("launch {}: {e}", self.worker_cmd.display()),
                        },
                        mailbox: WorkerMailbox(spawn.inbox),
                    })
                }
            }
        } else {
            None
        };
        let (admit_tx, admit_rx) = mpsc::channel();
        let poisoned = Arc::new(AtomicBool::new(false));
        self.shared.registry.lock().expect("registry lock").insert(
            node,
            NodeEntry {
                admit: admit_tx.clone(),
                conn: None,
                poisoned: Arc::clone(&poisoned),
            },
        );
        // A joiner may have dialed in before this stub existed.
        if let Some((conn, fb)) = self
            .shared
            .parked
            .lock()
            .expect("parked lock")
            .remove(&node)
        {
            let _ = admit_tx.send(Admission::Fresh { conn, fb });
        }
        if let Some(c) = &child {
            self.children.insert(node, Arc::clone(c));
        }
        let ctx = StubCtx {
            shared: Arc::clone(&self.shared),
            correlator: Arc::clone(&self.correlator),
            admissions: admit_rx,
            poisoned,
            child,
            policy: self.reconnect,
            compress: self.compression,
            handshake_patience: if self.expected_workers.is_some() {
                self.join_deadline
            } else {
                HANDSHAKE_PATIENCE
            },
        };
        // The spawn rides through a cell so a failed thread spawn can
        // hand the inbox back for the crashed-worker path instead of
        // panicking the controller.
        let cell = Arc::new(StdMutex::new(Some((spawn, ctx))));
        let cell2 = Arc::clone(&cell);
        match std::thread::Builder::new()
            .name(format!("albic-stub-{node}"))
            .spawn(move || {
                let (spawn, ctx) = cell2
                    .lock()
                    .expect("stub cell")
                    .take()
                    .expect("stub context consumed once");
                WorkerMailbox(stub_main(spawn, ctx))
            }) {
            Ok(handle) => Ok(handle),
            Err(e) => {
                let (spawn, ctx) = cell
                    .lock()
                    .expect("stub cell")
                    .take()
                    .expect("stub context consumed once");
                self.shared
                    .registry
                    .lock()
                    .expect("registry lock")
                    .remove(&node);
                self.children.remove(&node);
                if let Some(child) = &ctx.child {
                    let mut c = child.lock().expect("child lock");
                    let _ = c.kill();
                    let _ = c.wait();
                }
                Err(FailedSpawn {
                    error: TransportError::SpawnFailed {
                        node,
                        reason: format!("spawn stub thread: {e}"),
                    },
                    mailbox: WorkerMailbox(spawn.inbox),
                })
            }
        }
    }

    fn broadcast_routing(&self, version: u64, assignment: &[NodeId], peers: &Peers<'_>) {
        // Ships through each worker's inbox so it is FIFO-ordered with
        // the control messages that rely on it (e.g. the Extract right
        // after a migration flip).
        for tx in peers.0.read().values() {
            let _ = tx.send(Msg::RoutingUpdate {
                version,
                assignment: assignment.to_vec(),
            });
        }
    }

    fn inject_fault(&mut self, node: NodeId, _peers: &Peers<'_>) -> bool {
        // A real kill. Poison the session *first*: the stub checks the
        // flag on every turn and the acceptor refuses a poisoned RESUME,
        // so the kill deterministically defeats the reconnect policy —
        // it cannot race a re-dial into a resurrected session.
        let mut hit = false;
        if let Some(entry) = self
            .shared
            .registry
            .lock()
            .expect("registry lock")
            .get(&node)
        {
            entry.poisoned.store(true, Ordering::Release);
            if let Some(conn) = &entry.conn {
                let _ = conn.shutdown();
            }
            hit = true;
        }
        if let Some(child) = self.children.remove(&node) {
            let mut c = child.lock().expect("child lock");
            let _ = c.kill();
            let _ = c.wait();
            hit = true;
        }
        hit
    }

    fn drop_connection(&mut self, node: NodeId) -> bool {
        // Scripted network fault: sever the socket with shutdown(2) but
        // leave the process alone. The session must resume.
        match self
            .shared
            .registry
            .lock()
            .expect("registry lock")
            .get(&node)
        {
            Some(NodeEntry {
                conn: Some(conn), ..
            }) => conn.shutdown().is_ok(),
            _ => false,
        }
    }

    fn worker_gone(&mut self, node: NodeId) {
        self.shared
            .registry
            .lock()
            .expect("registry lock")
            .remove(&node);
        self.shared
            .parked
            .lock()
            .expect("parked lock")
            .remove(&node);
        if let Some(child) = self.children.remove(&node) {
            Self::reap(&child);
        }
        // The session died with the worker: any reply id it might replay
        // must not resolve a stale channel.
        self.correlator.purge_session();
    }

    fn end_period(&mut self) {
        self.correlator.advance_gen();
    }

    fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for (_, child) in self.children.drain() {
            Self::reap(&child);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.shared.registry.lock().expect("registry lock").clear();
        self.shared.parked.lock().expect("parked lock").clear();
        if let Some(path) = self.uds_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for NetTransport {
    fn drop(&mut self) {
        // Backstop: never leak worker processes or socket files, even if
        // the runtime was dropped without a clean shutdown.
        self.shutdown();
    }
}

/// The admission acceptor: polls the listener and routes every inbound
/// connection's first frame (`HELLO` or `RESUME`) to the owning stub.
fn acceptor_loop(listener: Listener, shared: Arc<NetShared>) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok(conn) => {
                // Admission reads one frame with a bounded timeout; run
                // it off-thread so a slow dialer cannot stall siblings.
                let cell = Arc::new(StdMutex::new(Some(conn)));
                let cell2 = Arc::clone(&cell);
                let sh = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("albic-admit".into())
                    .spawn(move || {
                        if let Some(conn) = cell2.lock().expect("admit cell").take() {
                            admit(conn, &sh);
                        }
                    })
                    .is_ok();
                if !spawned {
                    // Degraded: admit inline rather than dropping the
                    // connection.
                    if let Some(conn) = cell.lock().expect("admit cell").take() {
                        admit(conn, &shared);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Read and verify one connection's first frame, then hand it to the
/// owning stub. Everything unverifiable — bad magic, wrong token, a
/// resume for a poisoned or unknown session — drops the connection on
/// the floor (fail-closed).
fn admit(mut conn: Conn, shared: &NetShared) {
    if conn.set_read_timeout(Some(ADMIT_PATIENCE)).is_err() {
        return;
    }
    let mut fb = FrameBuffer::new();
    let Ok((kind, body)) = read_frame_blocking(&mut conn, &mut fb) else {
        return;
    };
    let mut r = Reader::new(&body);
    match kind {
        wire::FRAME_HELLO => {
            let Ok((node, token)) = wire::decode_hello(&mut r) else {
                return;
            };
            if token != shared.token {
                eprintln!("albic: rejecting worker {node}: bad join token");
                return;
            }
            if conn.set_read_timeout(None).is_err() {
                return;
            }
            if let Conn::Tcp(s) = &conn {
                let _ = s.set_nodelay(true);
            }
            let registry = shared.registry.lock().expect("registry lock");
            match registry.get(&node) {
                Some(entry) => {
                    let _ = entry.admit.send(Admission::Fresh { conn, fb });
                }
                None => {
                    // Joined before its stub exists: park until
                    // spawn_worker claims it.
                    drop(registry);
                    shared
                        .parked
                        .lock()
                        .expect("parked lock")
                        .insert(node, (conn, fb));
                }
            }
        }
        wire::FRAME_RESUME => {
            let Ok(resume) = wire::decode_resume(&mut r) else {
                return;
            };
            if resume.token != shared.token {
                eprintln!("albic: rejecting resume for {}: bad token", resume.node);
                return;
            }
            if conn.set_read_timeout(None).is_err() {
                return;
            }
            if let Conn::Tcp(s) = &conn {
                let _ = s.set_nodelay(true);
            }
            let registry = shared.registry.lock().expect("registry lock");
            if let Some(entry) = registry.get(&resume.node) {
                if entry.poisoned.load(Ordering::Acquire) {
                    return; // killed workers stay dead
                }
                let _ = entry.admit.send(Admission::Resume {
                    conn,
                    fb,
                    delivered: resume.delivered,
                    routing_version: resume.routing_version,
                });
            }
        }
        _ => {}
    }
}

/// Everything a stub needs besides its [`WorkerSpawn`].
struct StubCtx {
    shared: Arc<NetShared>,
    correlator: Arc<Correlator>,
    admissions: mpsc::Receiver<Admission>,
    poisoned: Arc<AtomicBool>,
    child: Option<Arc<StdMutex<Child>>>,
    policy: ReconnectPolicy,
    compress: bool,
    handshake_patience: Duration,
}

/// The controller-side bridge between one worker's inbox channel and its
/// socket: waits for admission, sends `INIT`, then runs the session loop
/// until the worker is gone for good. Returns the inbox for the
/// runtime's graveyard — the stub exiting *is* the worker dying, as far
/// as the runtime can tell.
fn stub_main(spawn: WorkerSpawn, ctx: StubCtx) -> Receiver<Msg> {
    let node = spawn.node;
    // Phase 1: wait for the worker's HELLO (concurrently with every
    // sibling stub — a worker that dies pre-HELLO stalls only itself).
    let deadline = Instant::now() + ctx.handshake_patience;
    let (mut conn, fb) = loop {
        if ctx.poisoned.load(Ordering::Acquire) {
            return spawn.inbox;
        }
        match ctx.admissions.recv_timeout(Duration::from_millis(10)) {
            Ok(Admission::Fresh { conn, fb }) => break (conn, fb),
            Ok(Admission::Resume { .. }) => {} // no session yet: drop it
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if let Some(child) = &ctx.child {
                    if let Ok(Some(status)) = child.lock().expect("child lock").try_wait() {
                        eprintln!(
                            "albic: {}",
                            TransportError::SpawnFailed {
                                node,
                                reason: format!("worker exited before connecting: {status}"),
                            }
                        );
                        return spawn.inbox;
                    }
                }
                if Instant::now() >= deadline {
                    eprintln!("albic: {}", TransportError::HandshakeTimeout { node });
                    if let Some(child) = &ctx.child {
                        let mut c = child.lock().expect("child lock");
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    return spawn.inbox;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return spawn.inbox,
        }
    };
    // Phase 2: bootstrap. Version before assignment: a reroute racing
    // the snapshot leaves the replica one broadcast behind, which the
    // next broadcast repairs — never a fresh table under a stale stamp
    // masking it.
    let init_sent = (|| -> io::Result<()> {
        let routing_version = spawn.routing.version();
        let assignment = spawn.routing.read().assignment().to_vec();
        let ops = spawn
            .topology
            .operators()
            .iter()
            .map(|spec| wire::InitOp {
                name: spec.name.clone(),
                logic: spec.logic.name().to_string(),
                key_groups: spec.key_groups,
                is_source: spec.is_source,
            })
            .collect();
        let edges = spawn
            .topology
            .edges()
            .iter()
            .map(|&(a, b)| (a.raw(), b.raw()))
            .collect();
        let init = wire::InitMsg {
            cfg: spawn.cfg,
            ops,
            edges,
            routing_version,
            assignment,
            compression: ctx.compress,
            reconnect: ctx.policy,
        };
        let mut w = Writer::new();
        wire::encode_init(&init, &mut w);
        conn.write_all(&wire::frame_bytes(wire::FRAME_INIT, &w.into_bytes()))?;
        conn.flush()?;
        conn.set_nonblocking(true)
    })();
    if init_sent.is_err() {
        eprintln!("albic: worker {node} died during bootstrap");
        return spawn.inbox;
    }
    ctx.shared.set_conn(node, &conn);
    stub_session(conn, fb, spawn, ctx)
}

/// The stub's session loop: nonblocking socket turns bridging the inbox
/// channel onto sequence-numbered frames, with resume-on-cut.
fn stub_session(
    mut conn: Conn,
    mut fb: FrameBuffer,
    spawn: WorkerSpawn,
    ctx: StubCtx,
) -> Receiver<Msg> {
    let WorkerSpawn {
        node,
        inbox,
        gauge,
        routing,
        senders,
        gauges,
        dropped,
        cfg,
        ..
    } = spawn;
    let mut send = SendSequencer::new(SEND_QUEUE_LIMIT);
    let mut recv = RecvSequencer::new();
    // Outbound bytes not yet accepted by the socket; `woff` is the
    // consumed prefix. While non-empty, the inbox is not pulled — that
    // is what carries backpressure through to the credit gauge.
    let mut wbuf: Vec<u8> = Vec::new();
    let mut woff = 0usize;
    // Highest parked sequence number already staged into `wbuf` on the
    // current socket; reset to the peer's delivery mark on resume.
    let mut staged = 0u64;
    let mut closing = false;
    let mut sock_dead = false;
    let mut buf = [0u8; IO_CHUNK];
    'session: loop {
        // 0. A poisoned session is a killed worker: die now, never resume.
        if ctx.poisoned.load(Ordering::Acquire) {
            let _ = conn.shutdown();
            return inbox;
        }
        // 0b. The socket is gone: resume or degrade to a corpse.
        if sock_dead {
            let _ = conn.shutdown();
            wbuf.clear();
            woff = 0;
            if closing {
                // Shutdown was underway; the tail is lost but so is the job.
                return inbox;
            }
            if ctx.policy.attempts == 0 {
                return inbox;
            }
            match wait_resume(node, &ctx, &mut send, &recv, &routing) {
                Some((new_conn, new_fb, peer_delivered)) => {
                    send.ack(peer_delivered);
                    staged = peer_delivered;
                    ctx.shared.set_conn(node, &new_conn);
                    conn = new_conn;
                    fb = new_fb;
                    sock_dead = false;
                }
                None => return inbox,
            }
            continue 'session;
        }
        let mut progress = false;
        // 1. Drain the socket.
        loop {
            match conn.read(&mut buf) {
                Ok(0) => {
                    sock_dead = true;
                    break;
                }
                Ok(n) => {
                    progress = true;
                    fb.extend(&buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    sock_dead = true;
                    break;
                }
            }
        }
        // 2. Handle complete frames. A *garbled* peer (bad framing or an
        // undecodable body) is hostile or broken — fail closed, no
        // resume. A sequence *gap* is a lossy cut — tear the socket down
        // and let the resume resend heal it.
        loop {
            match fb.next_frame() {
                Ok(Some((kind, body))) => match on_frame(
                    kind,
                    &body,
                    &mut send,
                    &mut recv,
                    &ctx.correlator,
                    &senders,
                    &gauges,
                    &dropped,
                    &cfg,
                ) {
                    Ok(FrameOutcome::Handled) => {}
                    Ok(FrameOutcome::Gap) => {
                        sock_dead = true;
                        break;
                    }
                    Err(e) => {
                        eprintln!("albic: worker {node} sent an undecodable frame: {e}");
                        let _ = conn.shutdown();
                        return inbox;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    eprintln!("albic: worker {node} broke framing: {e}");
                    let _ = conn.shutdown();
                    return inbox;
                }
            }
        }
        if sock_dead {
            continue 'session;
        }
        // 3. Owe the peer an explicit ack? (Piggybacking below also
        // counts, but a read-heavy stub must still prune the daemon's
        // resend queue.)
        if recv.ack_due() {
            wbuf.extend_from_slice(&wire::frame_bytes(
                wire::FRAME_ACK,
                &recv.delivered().to_le_bytes(),
            ));
            recv.mark_acked();
        }
        // 4. Stage parked frames (bounded per turn so reads interleave).
        let mut newly_staged = staged;
        for (seq, kind, body) in send.pending(staged) {
            if wbuf.len() >= STAGE_LIMIT {
                break;
            }
            wbuf.extend_from_slice(&wire::session_frame(kind, seq, recv.delivered(), body));
            newly_staged = seq;
        }
        if newly_staged > staged {
            staged = newly_staged;
            recv.mark_acked();
        }
        // 5. Flush as much of the outbound buffer as the socket takes.
        while woff < wbuf.len() {
            match conn.write(&wbuf[woff..]) {
                Ok(0) => {
                    sock_dead = true;
                    break;
                }
                Ok(n) => {
                    progress = true;
                    woff += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    sock_dead = true;
                    break;
                }
            }
        }
        if sock_dead {
            continue 'session;
        }
        if woff > 0 && woff == wbuf.len() {
            wbuf.clear();
            woff = 0;
        }
        if closing && staged == send.highest() && wbuf.is_empty() {
            break;
        }
        // 6. Encode inbox messages only once the buffer drained and the
        // resend queue has room, a bounded burst per turn so inbound
        // replies stay interleaved.
        if wbuf.is_empty() && !closing {
            for _ in 0..64 {
                if !send.has_room() {
                    break;
                }
                let msg = match inbox.try_recv() {
                    Ok(msg) => msg,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        closing = true;
                        break;
                    }
                };
                progress = true;
                if matches!(msg, Msg::DataChunk(_)) {
                    // The chunk left the queue for the wire: release its
                    // credit (the daemon meters its own inbox).
                    gauge.dequeued();
                }
                if matches!(msg, Msg::Shutdown | Msg::Crash) {
                    closing = true;
                }
                match msg {
                    Msg::RoutingUpdate {
                        version,
                        assignment,
                    } => {
                        send.push(
                            wire::FRAME_ROUTING,
                            wire::encode_routing(version, &assignment),
                        );
                    }
                    msg => {
                        let mut w = Writer::new();
                        wire::encode_msg(&msg, &mut w, ctx.compress, &mut |p| {
                            ctx.correlator.register(p)
                        });
                        send.push(wire::FRAME_MSG, w.into_bytes());
                    }
                }
                if closing {
                    break;
                }
            }
        }
        if !progress {
            std::thread::sleep(PRESSURE_POLL);
        }
    }
    inbox
}

/// Hold a cut session open for the worker to `RESUME`, up to the
/// policy's patience. Returns the fresh socket and the peer's delivery
/// mark, or `None` when the window expires (the worker is declared
/// crashed).
fn wait_resume(
    node: NodeId,
    ctx: &StubCtx,
    send: &mut SendSequencer,
    recv: &RecvSequencer,
    routing: &RoutingShared,
) -> Option<(Conn, FrameBuffer, u64)> {
    let deadline = Instant::now() + ctx.policy.patience();
    loop {
        if ctx.poisoned.load(Ordering::Acquire) {
            return None;
        }
        match ctx.admissions.recv_timeout(Duration::from_millis(25)) {
            Ok(Admission::Resume {
                mut conn,
                fb,
                delivered,
                routing_version,
            }) => {
                // A delivery mark this stream never produced (or one
                // regressing below the acked prefix) is a liar's resume.
                if !send.valid_resume_point(delivered) {
                    eprintln!(
                        "albic: rejecting resume for {node}: claimed delivery {delivered} \
                         outside acked {}..={}",
                        send.acked(),
                        send.highest()
                    );
                    continue;
                }
                if conn
                    .write_all(&wire::frame_bytes(
                        wire::FRAME_RESUMED,
                        &wire::encode_resumed(recv.delivered()),
                    ))
                    .and_then(|()| conn.flush())
                    .is_err()
                {
                    continue;
                }
                if conn.set_nonblocking(true).is_err() {
                    continue;
                }
                // Top the resumed stream up with a fresh routing snapshot
                // when the worker fell behind: it lands after the
                // replayed suffix, so the replica converges on the
                // current table.
                if routing_version < routing.version() {
                    let version = routing.version();
                    let assignment = routing.read().assignment().to_vec();
                    send.push(
                        wire::FRAME_ROUTING,
                        wire::encode_routing(version, &assignment),
                    );
                }
                return Some((conn, fb, delivered));
            }
            Ok(Admission::Fresh { .. }) => {} // mid-job HELLO: drop it
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if Instant::now() >= deadline {
                    eprintln!(
                        "albic: worker {node} did not resume within {:?}; declaring it crashed",
                        ctx.policy.patience()
                    );
                    return None;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return None,
        }
    }
}

enum FrameOutcome {
    Handled,
    Gap,
}

/// One inbound frame on a stub's socket: an ack to apply, then (for
/// session-bearing kinds) dedup before dispatch — a reply to resolve or
/// a message to relay to a peer worker's inbox.
#[allow(clippy::too_many_arguments)]
fn on_frame(
    kind: u8,
    body: &[u8],
    send: &mut SendSequencer,
    recv: &mut RecvSequencer,
    correlator: &Correlator,
    senders: &SenderMap,
    gauges: &GaugeMap,
    dropped: &Arc<AtomicU64>,
    cfg: &RuntimeConfig,
) -> Result<FrameOutcome, crate::codec::DecodeError> {
    match kind {
        wire::FRAME_ACK => {
            send.ack(wire::decode_ack(&mut Reader::new(body))?);
            Ok(FrameOutcome::Handled)
        }
        wire::FRAME_REPLY | wire::FRAME_FORWARD => {
            let (seq, ack, payload) = wire::split_session(body)?;
            send.ack(ack);
            match recv.accept(seq) {
                SeqVerdict::Fresh => {
                    dispatch_frame(kind, payload, correlator, senders, gauges, dropped, cfg)?;
                    Ok(FrameOutcome::Handled)
                }
                SeqVerdict::Duplicate => Ok(FrameOutcome::Handled),
                SeqVerdict::Gap => Ok(FrameOutcome::Gap),
            }
        }
        // Unknown frame kinds are ignored for forward compatibility.
        _ => Ok(FrameOutcome::Handled),
    }
}

/// Dispatch one deduplicated inbound payload.
fn dispatch_frame(
    kind: u8,
    payload: &[u8],
    correlator: &Correlator,
    senders: &SenderMap,
    gauges: &GaugeMap,
    dropped: &Arc<AtomicU64>,
    cfg: &RuntimeConfig,
) -> Result<(), crate::codec::DecodeError> {
    let mut r = Reader::new(payload);
    match kind {
        wire::FRAME_REPLY => {
            let id = r.get_u64()?;
            correlator.fire(id, &mut r)?;
        }
        wire::FRAME_FORWARD => {
            let dest = NodeId::new(r.get_u64()? as u32);
            // Decoded without an uplink: any reply handle inside is a
            // passthrough that survives the destination stub's re-encode
            // with its correlation id intact.
            let msg = wire::decode_msg(&mut r, None)?;
            match msg {
                Msg::DataChunk(chunk) => {
                    let n = chunk.visible_len() as u64;
                    // The same gated hand-off a worker thread uses,
                    // including the bounded patience and overflow
                    // accounting on the destination's gauge.
                    if send_gated(
                        senders,
                        gauges,
                        cfg.channel_capacity,
                        WORKER_SEND_PATIENCE,
                        dest,
                        Msg::DataChunk(chunk),
                    )
                    .is_err()
                    {
                        dropped.fetch_add(n, Ordering::Relaxed);
                    }
                }
                msg => {
                    // Control relays are never gated (matching the
                    // in-process rule); a dead destination's loss is
                    // handled by the liveness-aware coordinator waits.
                    if let Some(tx) = senders.read().get(&dest).cloned() {
                        let _ = tx.send(msg);
                    }
                }
            }
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket file left by a controller that never unlinked it (panic,
    /// SIGKILL) must be probed and reclaimed; a live listener must not.
    #[cfg(unix)]
    #[test]
    fn uds_bind_probes_stale_socket_files() {
        let path = std::env::temp_dir().join(format!(
            "albic-stale-probe-{}-{}.sock",
            std::process::id(),
            UDS_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        // Simulate the crashed controller: bind, then drop the listener
        // without removing the file (close() does not unlink).
        let stale = UnixListener::bind(&path).expect("bind stale");
        drop(stale);
        assert!(path.exists(), "socket file should outlive the listener");
        // The probe finds nothing accepting and reclaims the path.
        let reclaimed = bind_uds(&path).expect("reclaim stale socket");
        // A second bind while this listener is live must refuse.
        let err = bind_uds(&path).expect_err("live controller must not be evicted");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        drop(reclaimed);
        let _ = std::fs::remove_file(&path);
    }
}
