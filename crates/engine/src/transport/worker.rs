//! The worker daemon: what runs inside a networked worker process.
//!
//! A worker binary is a few lines — build an [`OperatorRegistry`] with
//! the operator logic the job may reference, then hand control to
//! [`worker_main`]:
//!
//! ```no_run
//! use albic_engine::transport::{worker_main, OperatorRegistry};
//!
//! std::process::exit(worker_main(OperatorRegistry::with_builtins()));
//! ```
//!
//! The daemon connects back to the address in `ALBIC_WORKER_CONNECT`
//! (retrying for a few seconds, so it can be started *before* the
//! controller — the join workflow), and introduces itself with a `HELLO`
//! frame carrying the node id from `ALBIC_WORKER_NODE` and the
//! shared-secret token from `ALBIC_WORKER_TOKEN`. The `INIT` bootstrap
//! it receives carries data-plane config, the operator network (logic
//! resolved by name against the registry — operators are code, and code
//! does not cross the wire), the initial routing table, and the session
//! policy (reconnect schedule, wire compression). It then runs the
//! *identical* [`WorkerCtx`](crate::runtime) event loop as an in-process
//! worker thread: the only differences are an uplink session where
//! channel sends would be, and a reader thread feeding the inbox from
//! the socket.
//!
//! When the socket dies the daemon does **not** exit: the reader thread
//! re-dials under the `INIT`-supplied [`ReconnectPolicy`], presents a
//! `RESUME` frame (node id, token, delivered-frame mark, routing
//! version), and on `RESUMED` replays its unacked outbound suffix while
//! the controller replays the other direction. Only when the policy is
//! exhausted does the uplink die, the inbox disconnect, and the process
//! exit — at which point the controller's checkpoint recovery owns the
//! node's state.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};

use albic_types::{NodeId, OperatorId};

use crate::codec::Reader;
use crate::operator::{Counting, Identity, Operator, PaddedCounting};
use crate::routing::RoutingTable;
use crate::runtime::{Msg, RoutingShared, WorkerCtx, WorkerGauge};
use crate::topology::TopologyBuilder;
use crate::transport::net::{self, Conn};
use crate::transport::session::{ReconnectPolicy, SeqVerdict};
use crate::transport::wire::{self, FrameBuffer, WireOut};
use crate::transport::WorkerSpawn;

/// How long a freshly started daemon keeps re-dialing the controller
/// before giving up — long enough to start workers first and the
/// controller after (the two-machine join workflow).
const DIAL_PATIENCE: Duration = Duration::from_secs(10);

/// Operator logic available to a worker daemon, keyed by
/// [`Operator::name`]. The `INIT` bootstrap names each operator's logic;
/// the daemon refuses to start if any name is missing here — a worker
/// binary must be built with the same operator set as the controller.
#[derive(Default)]
pub struct OperatorRegistry {
    ops: HashMap<String, Arc<dyn Operator>>,
}

impl OperatorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry with the engine's built-in operators
    /// ([`Identity`], [`Counting`], [`PaddedCounting`]).
    pub fn with_builtins() -> Self {
        let mut reg = Self::new();
        reg.register(Arc::new(Identity));
        reg.register(Arc::new(Counting));
        reg.register(Arc::new(PaddedCounting));
        reg
    }

    /// Add one operator logic, keyed by its [`Operator::name`]. Replaces
    /// any previous registration under the same name.
    pub fn register(&mut self, logic: Arc<dyn Operator>) -> &mut Self {
        self.ops.insert(logic.name().to_string(), logic);
        self
    }

    /// Look up logic by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Operator>> {
        self.ops.get(name).cloned()
    }
}

impl std::fmt::Debug for OperatorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.ops.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("OperatorRegistry")
            .field("ops", &names)
            .finish()
    }
}

/// Run a worker daemon to completion: connect back to the controller
/// named by `ALBIC_WORKER_CONNECT`, handshake as the node in
/// `ALBIC_WORKER_NODE` (presenting `ALBIC_WORKER_TOKEN`), and serve the
/// worker event loop until shutdown or until the reconnect policy is
/// exhausted. Returns the process exit code.
pub fn worker_main(registry: OperatorRegistry) -> i32 {
    match run_worker(&registry) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("albic-worker: {e}");
            1
        }
    }
}

fn env_var(name: &str) -> io::Result<String> {
    std::env::var(name)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, format!("{name} is not set")))
}

fn bad_data(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn run_worker(registry: &OperatorRegistry) -> io::Result<()> {
    let addr = env_var(net::ENV_CONNECT)?;
    let node_raw: u32 = env_var(net::ENV_NODE)?
        .parse()
        .map_err(|e| bad_data(format!("bad {}: {e}", net::ENV_NODE)))?;
    let node = NodeId::new(node_raw);
    let token = std::env::var(net::ENV_TOKEN).unwrap_or_default();

    // Dial with patience: in the join workflow the daemon may be started
    // before the controller's listener exists.
    let mut conn = {
        let deadline = Instant::now() + DIAL_PATIENCE;
        loop {
            match net::connect(&addr) {
                Ok(c) => break c,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(e) => return Err(e),
            }
        }
    };
    conn.write_all(&wire::frame_bytes(
        wire::FRAME_HELLO,
        &wire::encode_hello(node, &token),
    ))?;
    conn.flush()?;

    let mut fb = FrameBuffer::new();
    let (kind, body) = net::read_frame_blocking(&mut conn, &mut fb)?;
    if kind != wire::FRAME_INIT {
        return Err(bad_data(format!("expected INIT frame, got kind {kind}")));
    }
    let init = wire::decode_init(&mut Reader::new(&body)).map_err(bad_data)?;

    // Rebuild the topology: operator ids are dense and in `INIT` order,
    // so the builder reassigns the same ids the controller has.
    let mut builder = TopologyBuilder::new();
    for op in &init.ops {
        let logic = registry
            .get(&op.logic)
            .ok_or_else(|| bad_data(format!("operator logic {:?} is not registered", op.logic)))?;
        if op.is_source {
            builder.source(op.name.clone(), op.key_groups, logic);
        } else {
            builder.operator(op.name.clone(), op.key_groups, logic);
        }
    }
    for &(from, to) in &init.edges {
        builder.edge(OperatorId::new(from), OperatorId::new(to));
    }
    let topology = Arc::new(builder.build().map_err(|e| bad_data(format!("{e:?}")))?);

    // The local routing replica, refreshed by ROUTING frames.
    let routing = Arc::new(RoutingShared::new(RoutingTable::from_assignment(
        init.assignment.clone(),
    )));
    routing.install(init.routing_version, init.assignment);

    let uplink = WireOut::new(conn.try_clone()?, init.compression);
    let (tx, rx) = unbounded();
    let gauge = Arc::new(WorkerGauge::default());

    // Reader thread: socket → inbox. It owns the only inbox sender, so
    // when the uplink dies for good (reconnect policy exhausted) the
    // channel drops and the event loop below exits — the same signal an
    // in-process worker gets from a disconnected inbox. It inherits the
    // INIT read's frame buffer: the read that completed the INIT frame
    // may have pulled in the prefix (or whole) of whatever the
    // controller sent next, and a fresh buffer would silently drop it.
    // A failed thread spawn exits the daemon cleanly (the controller
    // sees the socket close and, with no RESUME coming, degrades to the
    // crashed-worker path) instead of panicking.
    let reader = {
        let link = ReaderLink {
            uplink: uplink.clone(),
            gauge: Arc::clone(&gauge),
            routing: Arc::clone(&routing),
            tx,
            addr: addr.clone(),
            node,
            token,
            policy: init.reconnect,
        };
        std::thread::Builder::new()
            .name("albic-uplink-reader".into())
            .spawn(move || link.run(conn, fb))
            .map_err(|e| io::Error::other(format!("spawn uplink reader: {e}")))?
    };

    // The daemon has no local peers: sender/gauge maps stay empty, so
    // every remote destination takes the uplink branch of the worker's
    // send paths.
    let spawn = WorkerSpawn {
        node,
        inbox: rx,
        gauge,
        topology,
        routing,
        senders: Arc::default(),
        gauges: Arc::default(),
        dropped: Arc::default(),
        cfg: init.cfg,
    };
    let _leftover = WorkerCtx::from_spawn(spawn, Some(uplink)).run();
    // The reader may still be parked in a blocking read on its clone of
    // the socket; it is detached rather than joined — the process exit
    // right after this return is what tears the socket down.
    drop(reader);
    Ok(())
}

/// Verdict of one inbound uplink frame.
enum LinkEvent {
    /// Keep reading.
    Keep,
    /// The stream is inconsistent with the session (sequence gap): tear
    /// the socket down and reconnect — the resume resend heals it.
    Cut,
    /// Garbled or hostile input, or the worker is gone: fail closed.
    Fatal,
}

/// The daemon side of the uplink session: the frame-reading loop plus
/// the reconnect schedule it falls back to when the socket dies.
struct ReaderLink {
    uplink: WireOut,
    gauge: Arc<WorkerGauge>,
    routing: Arc<RoutingShared>,
    tx: Sender<Msg>,
    addr: String,
    node: NodeId,
    token: String,
    policy: ReconnectPolicy,
}

impl ReaderLink {
    fn run(self, mut conn: Conn, mut fb: FrameBuffer) {
        'link: loop {
            // Read until the socket dies (then try to resume) or the
            // session itself is declared over.
            while let Ok((kind, body)) = net::read_frame_blocking(&mut conn, &mut fb) {
                match self.on_frame(kind, &body) {
                    LinkEvent::Keep => self.uplink.flush_ack(),
                    LinkEvent::Cut => break,
                    LinkEvent::Fatal => {
                        self.uplink.mark_dead();
                        return;
                    }
                }
            }
            let _ = conn.shutdown();
            // Re-dial under the policy; success re-enters the read loop
            // on a fresh socket with the session intact.
            let salt = 0x616c_6269_6300_0000u64 | u64::from(self.node.raw());
            for attempt in 0..self.policy.attempts {
                std::thread::sleep(self.policy.backoff(attempt, salt));
                match self.try_resume() {
                    Some((new_conn, new_fb)) => {
                        conn = new_conn;
                        fb = new_fb;
                        continue 'link;
                    }
                    None => continue,
                }
            }
            eprintln!(
                "albic-worker: node {} lost its controller for good after {} attempts",
                self.node, self.policy.attempts
            );
            self.uplink.mark_dead();
            return;
        }
    }

    /// One reconnect attempt: dial, present `RESUME`, wait briefly for
    /// `RESUMED`, then replay the unacked outbound suffix.
    fn try_resume(&self) -> Option<(Conn, FrameBuffer)> {
        let mut conn = net::connect(&self.addr).ok()?;
        let resume = wire::ResumeMsg {
            node: self.node,
            token: self.token.clone(),
            delivered: self.uplink.delivered(),
            routing_version: self.routing.version(),
        };
        conn.write_all(&wire::frame_bytes(
            wire::FRAME_RESUME,
            &wire::encode_resume(&resume),
        ))
        .and_then(|()| conn.flush())
        .ok()?;
        conn.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
        let mut fb = FrameBuffer::new();
        let (kind, body) = net::read_frame_blocking(&mut conn, &mut fb).ok()?;
        if kind != wire::FRAME_RESUMED {
            return None;
        }
        let peer_delivered = wire::decode_resumed(&mut Reader::new(&body)).ok()?;
        conn.set_read_timeout(None).ok()?;
        let write_half = conn.try_clone().ok()?;
        self.uplink.resume(write_half, peer_delivered).ok()?;
        Some((conn, fb))
    }

    fn on_frame(&self, kind: u8, body: &[u8]) -> LinkEvent {
        match kind {
            wire::FRAME_ACK => match wire::decode_ack(&mut Reader::new(body)) {
                Ok(upto) => {
                    self.uplink.peer_ack(upto);
                    LinkEvent::Keep
                }
                Err(_) => LinkEvent::Fatal,
            },
            wire::FRAME_MSG | wire::FRAME_ROUTING => {
                let Ok((seq, ack, payload)) = wire::split_session(body) else {
                    return LinkEvent::Fatal;
                };
                self.uplink.peer_ack(ack);
                match self.uplink.accept(seq) {
                    SeqVerdict::Duplicate => LinkEvent::Keep, // resume overlap
                    SeqVerdict::Gap => LinkEvent::Cut,
                    SeqVerdict::Fresh => self.dispatch(kind, payload),
                }
            }
            // Unknown kinds are ignored for forward compatibility.
            _ => LinkEvent::Keep,
        }
    }

    fn dispatch(&self, kind: u8, payload: &[u8]) -> LinkEvent {
        let mut r = Reader::new(payload);
        if kind == wire::FRAME_ROUTING {
            return match wire::decode_routing(&mut r) {
                Ok((version, assignment)) => {
                    self.routing.install(version, assignment);
                    LinkEvent::Keep
                }
                Err(_) => LinkEvent::Fatal,
            };
        }
        match wire::decode_msg(&mut r, Some(&self.uplink)) {
            Ok(msg) => {
                if matches!(msg, Msg::DataChunk(_)) {
                    // Meter before the send: the event loop decrements on
                    // dequeue, and the pair is what the controller's
                    // credit gauge mirrors.
                    self.gauge.enqueued();
                }
                if self.tx.send(msg).is_err() {
                    return LinkEvent::Fatal; // the event loop is gone
                }
                LinkEvent::Keep
            }
            Err(_) => LinkEvent::Fatal,
        }
    }
}
