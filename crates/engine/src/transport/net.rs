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
//! A stub is two blocking threads over one [`WireOut`] session half,
//! the session engine the worker daemon runs at the other end. The
//! writer (the stub thread proper) blocks on the worker's inbox and sends
//! whatever is queued as one `write`; while that write, or a full
//! session window, blocks it, it pulls nothing more, so the worker's
//! inbox runs out of credit and producers block exactly as in-process. The reader blocks on
//! the socket, applies acks, resolves replies and relays `FORWARD`s.
//! Neither sleeps on the message path.
//!
//! Socket death is *not* worker death: on a cut the reader holds the
//! session (see [`crate::transport::session`]) open for the worker to
//! `RESUME` within the [`ReconnectPolicy`]'s window, and both sides
//! replay exactly the frames the other never delivered. Only when the
//! window expires — or when [`Transport::inject_fault`] poisons the
//! session before SIGKILLing the process, so a kill can never race the
//! reconnect — does the reader end the session and wake the writer
//! through the inbox; the stub exits and checkpoint recovery takes over.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use albic_types::NodeId;

use crate::runtime::inbox::InboxRx;
use crate::runtime::{hand_off, InboxMap, Msg, RoutingShared, WORKER_SEND_PATIENCE};
use crate::transport::session::ReconnectPolicy;
use crate::transport::wire::{self, Correlator, FrameBuffer, LinkEvent, WireOut};
use crate::transport::{
    spawn_with, FailedSpawn, Peers, Transport, TransportError, WorkerMailbox, WorkerSpawn,
};

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
/// How long the acceptor backs off after a failed `accept` (e.g. out of
/// file descriptors) before trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);
/// Encoded size past which a stub writer stops adding messages to the
/// burst it sends as one `write`.
const WRITE_BURST_BYTES: usize = 64 * 1024;

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

/// Run `$body` on whichever stream `$conn` holds, bound as `$s`.
macro_rules! each_stream {
    ($conn:expr, $s:ident => $body:expr) => {
        match $conn {
            Conn::Tcp($s) => $body,
            #[cfg(unix)]
            Conn::Uds($s) => $body,
        }
    };
}

impl Conn {
    pub(crate) fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Conn::Uds(s) => Conn::Uds(s.try_clone()?),
        })
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        each_stream!(self, s => s.set_read_timeout(t))
    }

    /// Sever one or both directions without closing the descriptor — the
    /// kernel half of "kill the socket, not the process".
    pub(crate) fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        each_stream!(self, s => s.shutdown(how))
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        each_stream!(self, s => s.read(buf))
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        each_stream!(self, s => s.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        each_stream!(self, s => s.flush())
    }
}

/// Connect to a controller address of the form `tcp:host:port` or
/// `uds:/path` (the format [`NetTransport`] advertises via
/// `ALBIC_WORKER_CONNECT`). TCP links run with Nagle off, as the
/// controller's end does: a small `REPLY` must not wait for more bytes.
pub(crate) fn connect(addr: &str) -> io::Result<Conn> {
    if let Some(hostport) = addr.strip_prefix("tcp:") {
        let s = TcpStream::connect(hostport)?;
        s.set_nodelay(true)?;
        return Ok(Conn::Tcp(s));
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
    fn registry(&self) -> std::sync::MutexGuard<'_, HashMap<NodeId, NodeEntry>> {
        self.registry.lock().expect("registry lock")
    }

    fn parked(&self) -> std::sync::MutexGuard<'_, HashMap<NodeId, (Conn, FrameBuffer)>> {
        self.parked.lock().expect("parked lock")
    }

    fn set_conn(&self, node: NodeId, conn: &Conn) {
        if let Ok(clone) = conn.try_clone() {
            if let Some(entry) = self.registry().get_mut(&node) {
                entry.conn = Some(clone);
            }
        }
    }
}

/// SIGKILL a child process and reap it.
fn kill(child: &StdMutex<Child>) {
    let mut c = child.lock().expect("child lock");
    let _ = c.kill();
    let _ = c.wait();
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
    fn reap(child: &StdMutex<Child>) {
        let deadline = Instant::now() + REAP_PATIENCE;
        let running = || matches!(child.lock().expect("child lock").try_wait(), Ok(None));
        while running() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        kill(child); // SIGKILLs only a child that outlived the patience
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
                        mailbox: WorkerMailbox(Box::new(spawn.inbox)),
                    })
                }
            }
        } else {
            None
        };
        let (admit_tx, admit_rx) = mpsc::channel();
        let poisoned = Arc::new(AtomicBool::new(false));
        self.shared.registry().insert(
            node,
            NodeEntry {
                admit: admit_tx.clone(),
                conn: None,
                poisoned: Arc::clone(&poisoned),
            },
        );
        // A joiner may have dialed in before this stub existed.
        if let Some((conn, fb)) = self.shared.parked().remove(&node) {
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
        spawn_with(
            format!("albic-stub-{node}"),
            (spawn, ctx),
            |(spawn, ctx)| WorkerMailbox(Box::new(stub_main(spawn, ctx))),
        )
        .map_err(|(e, (spawn, ctx))| {
            self.shared.registry().remove(&node);
            self.children.remove(&node);
            if let Some(child) = &ctx.child {
                kill(child);
            }
            FailedSpawn {
                error: TransportError::SpawnFailed {
                    node,
                    reason: format!("spawn stub thread: {e}"),
                },
                mailbox: WorkerMailbox(Box::new(spawn.inbox)),
            }
        })
    }

    fn broadcast_routing(&self, version: u64, assignment: &[NodeId], peers: &Peers<'_>) {
        // Ships through each worker's inbox so it is FIFO-ordered with
        // the control messages that rely on it (e.g. the CancelReceive
        // right after an aborted wave's un-flip).
        for tx in peers.0.read().values() {
            let _ = tx.send(Msg::RoutingUpdate {
                version,
                assignment: assignment.to_vec(),
            });
        }
    }

    fn inject_fault(&mut self, node: NodeId, _peers: &Peers<'_>) -> bool {
        // A real kill. Poison the session *first*: the stub's reader
        // checks the flag when the socket dies (shut here, so it dies now)
        // and the acceptor refuses a poisoned RESUME, so the kill
        // deterministically defeats the reconnect policy — it cannot race
        // a re-dial into a resurrected session.
        let mut hit = false;
        if let Some(entry) = self.shared.registry().get(&node) {
            entry.poisoned.store(true, Ordering::Release);
            if let Some(conn) = &entry.conn {
                let _ = conn.shutdown(Shutdown::Both);
            }
            hit = true;
        }
        if let Some(child) = self.children.remove(&node) {
            kill(&child);
            hit = true;
        }
        hit
    }

    fn drop_connection(&mut self, node: NodeId) -> bool {
        // Scripted network fault: sever the socket with shutdown(2) but
        // leave the process alone. The session must resume.
        match self.shared.registry().get(&node) {
            Some(NodeEntry {
                conn: Some(conn), ..
            }) => conn.shutdown(Shutdown::Both).is_ok(),
            _ => false,
        }
    }

    fn worker_gone(&mut self, node: NodeId) {
        self.shared.registry().remove(&node);
        self.shared.parked().remove(&node);
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
            // The acceptor is parked in accept(): dial it once so it
            // wakes and sees the flag. Should the dial fail, leave it
            // parked rather than hang the shutdown on the join.
            if connect(&self.connect_addr).is_ok() {
                let _ = acceptor.join();
            }
        }
        self.shared.registry().clear();
        self.shared.parked().clear();
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

/// The admission acceptor: blocks on the listener and routes every
/// inbound connection's first frame (`HELLO` or `RESUME`) to the owning
/// stub. [`NetTransport::shutdown`] wakes it with a dial of its own.
fn acceptor_loop(listener: Listener, shared: Arc<NetShared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok(conn) => {
                // Admission reads one frame with a bounded timeout; run
                // it off-thread so a slow dialer cannot stall siblings,
                // or inline should the OS refuse the thread.
                let sh = Arc::clone(&shared);
                if let Err((_, conn)) =
                    spawn_with("albic-admit".into(), conn, move |conn| admit(conn, &sh))
                {
                    admit(conn, &shared);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Out of descriptors and the like: back off instead of spinning.
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
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
    let Ok((kind, body)) = fb.read_frame(&mut conn) else {
        return;
    };
    // Past its first frame a connection is a session socket: blocking
    // reads, and (TCP) no Nagle delay on small replies.
    if conn.set_read_timeout(None).is_err() {
        return;
    }
    if let Conn::Tcp(s) = &conn {
        let _ = s.set_nodelay(true);
    }
    match kind {
        wire::FRAME_HELLO => {
            let Ok(wire::Hello { node, token }) = wire::decode(body, None) else {
                return;
            };
            if token != shared.token {
                eprintln!("albic: rejecting worker {node}: bad join token");
                return;
            }
            match shared.registry().get(&node) {
                Some(entry) => {
                    let _ = entry.admit.send(Admission::Fresh { conn, fb });
                }
                // Joined before its stub exists: park it (under the
                // registry lock, so spawn_worker cannot miss it).
                None => {
                    shared.parked().insert(node, (conn, fb));
                }
            }
        }
        wire::FRAME_RESUME => {
            let Ok(resume) = wire::decode::<wire::ResumeMsg>(body, None) else {
                return;
            };
            if resume.token != shared.token {
                eprintln!("albic: rejecting resume for {}: bad token", resume.node);
                return;
            }
            if let Some(entry) = shared.registry().get(&resume.node) {
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
/// socket: waits for admission, sends `INIT`, starts the session's reader
/// thread, then runs the writer until the worker is gone for good.
/// Returns the inbox for the runtime's graveyard — the stub exiting *is*
/// the worker dying, as far as the runtime can tell.
fn stub_main(spawn: WorkerSpawn, ctx: StubCtx) -> InboxRx {
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
                        kill(child);
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
    let init_sent = (|| -> io::Result<WireOut> {
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
        conn.write_all(&wire::frame_bytes(wire::FRAME_INIT, &wire::encode(&init)))?;
        Ok(WireOut::new(conn.try_clone()?, ctx.compress, None))
    })();
    let Ok(out) = init_sent else {
        eprintln!("albic: worker {node} died during bootstrap");
        return spawn.inbox;
    };
    ctx.shared.set_conn(node, &conn);
    // Phase 3: the session, as two blocking threads over `out`.
    let WorkerSpawn {
        inbox,
        routing,
        senders,
        dropped,
        ..
    } = spawn;
    let correlator = Arc::clone(&ctx.correlator);
    let reader = StubReader {
        node,
        out: out.clone(),
        ctx,
        routing,
        senders,
        dropped,
        replay: Default::default(),
    };
    let Ok(reader) = std::thread::Builder::new()
        .name(format!("albic-stub-reader-{node}"))
        .spawn(move || reader.run(conn, fb))
    else {
        eprintln!("albic: worker {node}: could not spawn its stub reader");
        out.close();
        return inbox;
    };
    let inbox = stub_writer(inbox, &out, &correlator);
    // Both ways out of the writer have already ended the reader's loop:
    // the reader killed the session itself, or the writer closed it.
    let _ = reader.join();
    inbox
}

/// The stub's writer, run on the stub thread itself: block on the
/// worker's inbox, drain whatever else is already queued up to
/// [`WRITE_BURST_BYTES`], and send the burst as one `write`. The inbox
/// merges short data chunks queued back to back, so a trickle costs one
/// frame, not one each; an encoded chunk's buffer goes back to its spare
/// list. Once the inbox hands a chunk over, the session window holds it:
/// the daemon acks it only once its worker has dequeued it. Returns the
/// inbox once the session is dead (the reader ended it and woke this
/// thread through the inbox), or once a `Shutdown`/`Crash` and everything
/// queued before it are on the wire.
fn stub_writer(mut inbox: InboxRx, out: &WireOut, correlator: &Correlator) -> InboxRx {
    let mut burst = Vec::new();
    // One yield before parking lets a busy producer top the next burst
    // up; a writer that parked after every chunk would pay a futex wake
    // per chunk.
    while let Some(first) = inbox.try_next().ok().or_else(|| {
        std::thread::yield_now();
        inbox.next()
    }) {
        if out.is_dead() {
            return inbox;
        }
        let (mut closing, mut bytes) = (false, 0);
        let mut next = Some(first);
        while let Some(msg) = next {
            closing = matches!(msg, Msg::Shutdown | Msg::Crash);
            let frame = match msg {
                Msg::RoutingUpdate {
                    version,
                    assignment,
                } => (wire::FRAME_ROUTING, wire::encode(&(version, assignment))),
                msg => {
                    let body = wire::encode_with(&msg, out.compress(), Some(correlator));
                    // Encoded: the chunk's buffer goes back to the
                    // producers of this inbox.
                    if let Msg::DataChunk(chunk) = msg {
                        inbox.credit.give_back(chunk);
                    }
                    (wire::FRAME_MSG, body)
                }
            };
            bytes += frame.1.len();
            burst.push(frame);
            next = if closing || bytes >= WRITE_BURST_BYTES {
                None
            } else {
                inbox.try_next().ok()
            };
        }
        if out.send_burst(&mut burst).is_err() {
            return inbox;
        }
        if closing {
            break;
        }
    }
    // Closed, or every sender is gone: nothing will be written again.
    out.close();
    inbox
}

/// The stub's reader thread: the inbound half of the session, plus the
/// controller's side of a resume.
struct StubReader {
    node: NodeId,
    out: WireOut,
    ctx: StubCtx,
    routing: Arc<RoutingShared>,
    senders: InboxMap,
    dropped: Arc<AtomicU64>,
    /// The latest resume's replay thread, joined, never detached.
    replay: std::cell::Cell<Option<JoinHandle<io::Result<()>>>>,
}

impl StubReader {
    /// Read until the session is over: resume a cut socket under the
    /// policy, fail closed on a garbled peer, give up on a poisoned
    /// (killed) worker. Then end the session and wake the writer.
    fn run(self, mut conn: Conn, mut fb: FrameBuffer) {
        loop {
            let event = self.out.pump(&mut conn, &mut fb, |kind, payload| {
                self.dispatch(kind, payload)
            });
            if self.out.is_dead() {
                break; // the writer closed the session
            }
            let _ = conn.shutdown(Shutdown::Both);
            if event == LinkEvent::Fatal {
                eprintln!("albic: worker {} broke framing; session closed", self.node);
                break;
            }
            let killed = self.ctx.poisoned.load(Ordering::Acquire);
            let resumed = (!killed && self.ctx.policy.attempts > 0).then(|| self.wait_resume());
            let Some(Some(resumed)) = resumed else {
                break;
            };
            (conn, fb) = resumed;
        }
        if let Some(replay) = self.replay.take() {
            let _ = replay.join();
        }
        // The writer is parked on the worker's inbox: a message there is
        // the only thing that wakes it, so it can see the session is over
        // and the stub can exit.
        if self.out.mark_dead() {
            if let Some(tx) = self.senders.read().get(&self.node).cloned() {
                let _ = tx.send(Msg::Crash);
            }
        }
    }

    /// Hold a cut session open for the worker to `RESUME`, up to the
    /// policy's patience. Returns the fresh socket, or `None` when the
    /// window expires (the worker is declared crashed), the worker was
    /// killed, or the writer closed the session.
    fn wait_resume(&self) -> Option<(Conn, FrameBuffer)> {
        let deadline = Instant::now() + self.ctx.policy.patience();
        while !self.ctx.poisoned.load(Ordering::Acquire) && !self.out.is_dead() {
            // Re-check the poison flag and the deadline every 25 ms.
            match self.ctx.admissions.recv_timeout(Duration::from_millis(25)) {
                Ok(Admission::Resume {
                    conn,
                    fb,
                    delivered,
                    routing_version,
                }) => {
                    if self.resume(&conn, delivered, routing_version) {
                        self.ctx.shared.set_conn(self.node, &conn);
                        return Some((conn, fb));
                    }
                }
                Ok(Admission::Fresh { .. }) => {} // mid-job HELLO: drop it
                Err(mpsc::RecvTimeoutError::Timeout) if Instant::now() >= deadline => {
                    eprintln!(
                        "albic: worker {} did not resume within {:?}; declaring it crashed",
                        self.node,
                        self.ctx.policy.patience()
                    );
                    return None;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => return None,
            }
        }
        None
    }

    /// Accept one `RESUME` on `conn`: answer `RESUMED` with this end's
    /// delivery mark and start replaying the parked suffix. `false`
    /// rejects it (the worker may dial again).
    fn resume(&self, conn: &Conn, delivered: u64, routing_version: u64) -> bool {
        // A delivery mark this stream never produced (or one regressing
        // below the acked prefix) is a liar's resume.
        if !self.out.valid_resume_point(delivered) {
            eprintln!(
                "albic: rejecting resume for {}: claimed delivery {delivered} \
                 outside the unacked part of its stream",
                self.node
            );
            return false;
        }
        let resumed = wire::encode(&self.out.delivered());
        let resumed = wire::frame_bytes(wire::FRAME_RESUMED, &resumed);
        let write_half = conn.try_clone();
        let Ok(write_half) = write_half.and_then(|mut w| w.write_all(&resumed).map(|()| w)) else {
            return false;
        };
        // Top the resumed stream up with a fresh routing snapshot when the
        // worker fell behind: it lands after the replayed suffix, so the
        // replica converges on the current table.
        let top_up = (routing_version < self.routing.version()).then(|| {
            let version = self.routing.version(); // before the table: see INIT
            let table = self.routing.read().assignment().to_vec();
            (wire::FRAME_ROUTING, wire::encode(&(version, table)))
        });
        // Replay on a helper thread so this one goes back to reading at
        // once: the worker replays its own suffix before it reads again,
        // and two blocking replays larger than the socket buffers would
        // wait on each other forever.
        let out = self.out.clone();
        let replay = std::thread::Builder::new()
            .name(format!("albic-stub-replay-{}", self.node))
            .spawn(move || out.resume(write_half, delivered, top_up));
        let Ok(replay) = replay else {
            let _ = conn.shutdown(Shutdown::Both);
            return false;
        };
        // The previous socket is dead, so its replay is over or failing.
        if let Some(previous) = self.replay.replace(Some(replay)) {
            let _ = previous.join();
        }
        true
    }

    /// Dispatch one deduplicated inbound payload: resolve a reply, or
    /// relay a message to a peer worker's inbox.
    fn dispatch(&self, kind: u8, payload: &[u8]) -> LinkEvent {
        match self.relay(kind, payload) {
            Ok(()) => LinkEvent::Keep,
            Err(e) => {
                eprintln!("albic: worker {} sent an undecodable frame: {e}", self.node);
                LinkEvent::Fatal
            }
        }
    }

    fn relay(&self, kind: u8, payload: &[u8]) -> Result<(), crate::codec::DecodeError> {
        match kind {
            wire::FRAME_REPLY => self.ctx.correlator.fire(payload)?,
            wire::FRAME_FORWARD => {
                // Decoded without an uplink: any reply handle inside is a
                // passthrough that survives the destination stub's
                // re-encode with its correlation id intact.
                let (dest, msg) = wire::decode::<(NodeId, Msg)>(payload, None)?;
                match msg {
                    Msg::DataChunk(chunk) => {
                        let n = chunk.visible_len() as u64;
                        // The same gated hand-off a worker thread uses,
                        // including the bounded patience and overflow
                        // accounting on the destination's inbox.
                        let chunk = Msg::DataChunk(chunk);
                        if hand_off(&self.senders, dest, WORKER_SEND_PATIENCE, chunk).is_err() {
                            self.dropped.fetch_add(n, Ordering::Relaxed);
                        }
                    }
                    msg => {
                        // Control relays are never gated (matching the
                        // in-process rule); a dead destination's loss is
                        // handled by the liveness-aware coordinator waits.
                        if let Some(tx) = self.senders.read().get(&dest).cloned() {
                            let _ = tx.send(msg);
                        }
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{inbox, RuntimeConfig};

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

    /// `connect` serves the daemon's first dial and every resume: its TCP
    /// end must run without Nagle, or a small `REPLY` waits for more bytes.
    #[test]
    fn connect_disables_nagle_on_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = format!("tcp:{}", listener.local_addr().expect("addr"));
        let Conn::Tcp(stream) = connect(&addr).expect("dial") else {
            panic!("a tcp: address dials TCP");
        };
        assert!(stream.nodelay().expect("read TCP_NODELAY"));
    }

    /// A `HELLO` or `RESUME` body with one byte after its last field is
    /// dropped at admission, like any other body that does not decode.
    #[cfg(unix)]
    #[test]
    fn admit_rejects_a_handshake_with_a_trailing_byte() {
        let shared = NetShared {
            token: String::new(),
            registry: StdMutex::new(HashMap::new()),
            parked: StdMutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        };
        let (admit, admissions) = mpsc::channel();
        let (node, joiner) = (NodeId::new(7), NodeId::new(8));
        let poisoned = Arc::default();
        let entry = NodeEntry {
            admit,
            conn: None,
            poisoned,
        };
        shared.registry().insert(node, entry);
        let token = String::new();
        let hello = wire::encode(&wire::Hello {
            node: joiner,
            token: token.clone(),
        });
        let resume = wire::encode(&wire::ResumeMsg {
            node,
            token,
            delivered: 0,
            routing_version: 0,
        });
        let offer = |kind, body: &[u8]| {
            let (ours, mut theirs) = UnixStream::pair().expect("socket pair");
            theirs
                .write_all(&wire::frame_bytes(kind, body))
                .expect("write");
            super::admit(Conn::Uds(ours), &shared);
        };
        for (kind, body) in [(wire::FRAME_HELLO, &hello), (wire::FRAME_RESUME, &resume)] {
            offer(kind, &[&body[..], &[0]].concat());
        }
        assert!(shared.parked().is_empty(), "a long HELLO was parked");
        assert!(admissions.try_recv().is_err(), "a long RESUME was routed");
        offer(wire::FRAME_HELLO, &hello);
        offer(wire::FRAME_RESUME, &resume);
        assert!(shared.parked().contains_key(&joiner));
        assert!(matches!(
            admissions.try_recv(),
            Ok(Admission::Resume { .. })
        ));
    }

    /// A `FORWARD` body with one byte after its message is refused, and
    /// nothing reaches the destination's inbox.
    #[cfg(unix)]
    #[test]
    fn relay_rejects_a_forward_with_a_trailing_byte() {
        let (ours, _theirs) = UnixStream::pair().expect("socket pair");
        let (_admit, admissions) = mpsc::channel();
        let shared = Arc::new(NetShared {
            token: String::new(),
            registry: StdMutex::new(HashMap::new()),
            parked: StdMutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        });
        let ctx = StubCtx {
            shared,
            correlator: Arc::new(Correlator::new()),
            admissions,
            poisoned: Arc::default(),
            child: None,
            policy: ReconnectPolicy::none(),
            compress: false,
            handshake_patience: Duration::ZERO,
        };
        let dest = NodeId::new(1);
        let (tx, mut inbox) = inbox::channel(&RuntimeConfig::default());
        let senders: InboxMap = Arc::default();
        senders.write().insert(dest, tx);
        let reader = StubReader {
            node: NodeId::new(0),
            out: WireOut::new(Conn::Uds(ours), false, None),
            ctx,
            routing: Arc::new(RoutingShared::new(
                crate::routing::RoutingTable::from_assignment(vec![]),
            )),
            senders,
            dropped: Arc::default(),
            replay: Default::default(),
        };
        let barrier = Msg::PeerBarrier {
            epoch: 1,
            from: NodeId::new(0),
        };
        let forward = wire::encode(&(dest, barrier));
        let long = [&forward[..], &[0]].concat();
        assert!(reader.relay(wire::FRAME_FORWARD, &long).is_err());
        assert!(inbox.try_next().is_err(), "a long FORWARD was relayed");
        assert!(reader.relay(wire::FRAME_FORWARD, &forward).is_ok());
        assert!(matches!(
            inbox.try_next(),
            Ok(Msg::PeerBarrier { epoch: 1, .. })
        ));
    }

    /// A `Shutdown` queued behind a burst larger than the socket buffer
    /// goes out last, after every frame queued before it, and the writer
    /// hands back an empty inbox only then. The burst is more than a
    /// session window, so the peer acks each frame it reads, as a daemon
    /// does once its worker has dequeued it.
    #[cfg(unix)]
    #[test]
    fn shutdown_queued_behind_a_burst_delivers_the_whole_burst() {
        use crate::chunk::StreamChunk;
        use crate::tuple::{Tuple, Value};

        let (ours, mut theirs) = UnixStream::pair().expect("socket pair");
        // A lost frame fails the peer's read instead of hanging the test.
        theirs
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut acks = Conn::Uds(ours.try_clone().expect("clone"));
        let out = WireOut::new(Conn::Uds(ours), false, None);
        let reader = {
            let out = out.clone();
            std::thread::spawn(move || {
                out.pump(&mut acks, &mut FrameBuffer::new(), |_, _| LinkEvent::Keep)
            })
        };
        let (tx, inbox) = inbox::channel(&RuntimeConfig::default());
        const CHUNKS: u64 = 300; // 300 × 256 rows ≈ 2 MiB encoded
        for c in 0..CHUNKS {
            let rows = (0..256).map(|i| Tuple::keyed(&c, Value::Int(i), c));
            assert!(tx
                .send(Msg::DataChunk(StreamChunk::from_tuples(rows)))
                .is_ok());
        }
        assert!(tx.send(Msg::Shutdown).is_ok());
        let peer = std::thread::spawn(move || {
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            while got.last() != Some(&u64::MAX) {
                let (kind, body) = fb.read_frame(&mut theirs).expect("frame");
                assert_eq!(kind, wire::FRAME_MSG);
                let (seq, _, payload) = wire::split_session(body).expect("session frame");
                assert_eq!(seq, got.len() as u64 + 1, "frames arrive in sequence");
                got.push(match wire::decode::<Msg>(payload, None) {
                    Ok(Msg::DataChunk(chunk)) => chunk.ts_at(0),
                    Ok(Msg::Shutdown) => u64::MAX,
                    _ => panic!("frame {seq} is neither a chunk nor the shutdown"),
                });
                let ack = wire::frame_bytes(wire::FRAME_ACK, &seq.to_le_bytes());
                let _ = theirs.write_all(&ack); // the writer may be gone
            }
            got
        });
        let mut inbox = stub_writer(inbox, &out, &Correlator::new());
        assert!(inbox.try_next().is_err(), "the inbox comes back drained");
        assert!(out.is_dead(), "a written Shutdown closes the session");
        assert_eq!(reader.join().expect("the reader ends"), LinkEvent::Cut);
        let got = peer.join().expect("peer reads every frame");
        let mut want: Vec<u64> = (0..CHUNKS).collect();
        want.push(u64::MAX);
        assert_eq!(got, want, "the whole burst, in order, then the shutdown");
    }

    /// Short chunks queued back to back leave as merged frames of at most
    /// `batch_size` rows, in order; a control message queued between
    /// them is written in its place, never ahead of the data before it.
    #[cfg(unix)]
    #[test]
    fn queued_short_chunks_merge_into_frames_up_to_the_batch_size() {
        use crate::chunk::StreamChunk;
        use crate::tuple::{Tuple, Value};

        let (ours, mut theirs) = UnixStream::pair().expect("socket pair");
        theirs
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let out = WireOut::new(Conn::Uds(ours), false, None);
        let cfg = RuntimeConfig {
            batch_size: 4,
            ..RuntimeConfig::default()
        };
        let (tx, inbox) = inbox::channel(&cfg);
        let one_row = |ts: u64| {
            Msg::DataChunk(StreamChunk::from_tuples([Tuple::keyed(
                &ts,
                Value::Int(1),
                ts,
            )]))
        };
        for ts in 0..10 {
            assert!(tx.send(one_row(ts)).is_ok());
        }
        let routing = Msg::RoutingUpdate {
            version: 3,
            assignment: vec![NodeId::new(0)],
        };
        assert!(tx.send(routing).is_ok());
        for ts in 10..13 {
            assert!(tx.send(one_row(ts)).is_ok());
        }
        assert!(tx.send(Msg::Shutdown).is_ok());
        let peer = std::thread::spawn(move || {
            let mut fb = FrameBuffer::new();
            let mut frames = Vec::new();
            loop {
                let (kind, body) = fb.read_frame(&mut theirs).expect("frame");
                let (_, _, payload) = wire::split_session(body).expect("session frame");
                if kind == wire::FRAME_ROUTING {
                    frames.push(vec![u64::MAX - 1]);
                    continue;
                }
                match wire::decode::<Msg>(payload, None) {
                    Ok(Msg::DataChunk(c)) => {
                        frames.push((0..c.len()).map(|i| c.ts_at(i)).collect())
                    }
                    Ok(Msg::Shutdown) => return frames,
                    _ => panic!("unexpected frame"),
                }
            }
        });
        let mut inbox = stub_writer(inbox, &out, &Correlator::new());
        assert!(inbox.try_next().is_err(), "the inbox comes back drained");
        assert_eq!(inbox.credit.depth(), 0, "one credit released per chunk");
        let frames = peer.join().expect("peer reads every frame");
        let want: Vec<Vec<u64>> = vec![
            vec![0, 1, 2, 3],
            vec![4, 5, 6, 7],
            vec![8, 9],
            vec![u64::MAX - 1],
            vec![10, 11, 12],
        ];
        assert_eq!(frames, want);
    }
}
