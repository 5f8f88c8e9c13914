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

use albic_types::{NodeId, OperatorId};

use crate::operator::{Counting, Identity, Operator, PaddedCounting};
use crate::routing::RoutingTable;
use crate::runtime::inbox::{self, Inbox};
use crate::runtime::{Msg, RoutingShared, WorkerCtx};
use crate::topology::TopologyBuilder;
use crate::transport::net::{self, Conn};
use crate::transport::session::ReconnectPolicy;
use crate::transport::wire::{self, FrameBuffer, LinkEvent, WireOut};
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
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(100))
                }
                Err(e) => return Err(e),
            }
        }
    };
    let hello = wire::Hello {
        node,
        token: token.clone(),
    };
    conn.write_all(&wire::frame_bytes(wire::FRAME_HELLO, &wire::encode(&hello)))?;
    conn.flush()?;

    let mut fb = FrameBuffer::new();
    let (kind, body) = fb.read_frame(&mut conn)?;
    if kind != wire::FRAME_INIT {
        return Err(bad_data(format!("expected INIT frame, got kind {kind}")));
    }
    let init: wire::InitMsg = wire::decode(body, None).map_err(bad_data)?;

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

    // The uplink's acks leave out the chunks the inbox holds.
    let (tx, rx) = inbox::channel(&init.cfg);
    let held = Some(Arc::clone(&rx.credit));
    let uplink = WireOut::new(conn.try_clone()?, init.compression, held);

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

    // The daemon has no local peers: its inbox map stays empty, so every
    // remote destination takes the uplink branch of the worker's send
    // paths.
    let spawn = WorkerSpawn {
        node,
        inbox: rx,
        topology,
        routing,
        senders: Arc::default(),
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

/// The daemon side of the uplink session: the shared inbound pump (see
/// [`WireOut::pump`]) plus the reconnect schedule it falls back to when
/// the socket dies.
pub(crate) struct ReaderLink {
    pub(crate) uplink: WireOut,
    pub(crate) routing: Arc<RoutingShared>,
    pub(crate) tx: Inbox,
    pub(crate) addr: String,
    pub(crate) node: NodeId,
    pub(crate) token: String,
    pub(crate) policy: ReconnectPolicy,
}

impl ReaderLink {
    pub(crate) fn run(self, mut conn: Conn, mut fb: FrameBuffer) {
        loop {
            // Read until the socket dies (then try to resume) or the
            // session itself is declared over.
            let event = self.uplink.pump(&mut conn, &mut fb, |kind, payload| {
                self.dispatch(kind, payload)
            });
            let _ = conn.shutdown(std::net::Shutdown::Both);
            // Re-dial under the policy; success re-enters the read loop
            // on a fresh socket with the session intact.
            let salt = 0x616c_6269_6300_0000u64 | u64::from(self.node.raw());
            let resumed = (event != LinkEvent::Fatal).then(|| {
                (0..self.policy.attempts).find_map(|attempt| {
                    std::thread::sleep(self.policy.backoff(attempt, salt));
                    self.try_resume()
                })
            });
            match resumed {
                Some(Some(resumed)) => (conn, fb) = resumed,
                Some(None) => {
                    eprintln!(
                        "albic-worker: node {} lost its controller for good after {} attempts",
                        self.node, self.policy.attempts
                    );
                    break;
                }
                None => break,
            }
        }
        self.uplink.mark_dead();
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
            &wire::encode(&resume),
        ))
        .and_then(|()| conn.flush())
        .ok()?;
        conn.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
        let mut fb = FrameBuffer::new();
        let (kind, body) = fb.read_frame(&mut conn).ok()?;
        if kind != wire::FRAME_RESUMED {
            return None;
        }
        let peer_delivered = wire::decode::<u64>(body, None).ok()?;
        conn.set_read_timeout(None).ok()?;
        let write_half = conn.try_clone().ok()?;
        self.uplink.resume(write_half, peer_delivered, None).ok()?;
        Some((conn, fb))
    }

    /// Apply one deduplicated inbound payload: install a routing update,
    /// or hand a message to the worker's event loop.
    fn dispatch(&self, kind: u8, payload: &[u8]) -> LinkEvent {
        if kind == wire::FRAME_ROUTING {
            return match wire::decode::<wire::Routing>(payload, None) {
                Ok((version, assignment)) => {
                    self.routing.install(version, assignment);
                    LinkEvent::Keep
                }
                Err(_) => LinkEvent::Fatal,
            };
        }
        if kind != wire::FRAME_MSG {
            return LinkEvent::Keep; // controller-bound kinds: not ours
        }
        match wire::decode::<Msg>(payload, Some(&self.uplink)) {
            Ok(msg) => {
                // The inbox meters a data chunk from here until the event
                // loop takes it, and the uplink's acks leave it out.
                if self.tx.send(msg).is_err() {
                    return LinkEvent::Fatal; // the event loop is gone
                }
                LinkEvent::Keep
            }
            Err(_) => LinkEvent::Fatal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A message or routing body with one byte after its last field is
    /// refused, not half-read: the daemon fails the link closed.
    #[cfg(unix)]
    #[test]
    fn dispatch_rejects_a_body_with_a_trailing_byte() {
        let (ours, _theirs) = std::os::unix::net::UnixStream::pair().expect("socket pair");
        let (tx, mut inbox) = inbox::channel(&crate::runtime::RuntimeConfig::default());
        let link = ReaderLink {
            uplink: WireOut::new(Conn::Uds(ours), false, Some(Arc::clone(&inbox.credit))),
            routing: Arc::new(RoutingShared::new(RoutingTable::from_assignment(vec![]))),
            tx,
            addr: String::new(),
            node: NodeId::new(0),
            token: String::new(),
            policy: ReconnectPolicy::none(),
        };
        let msg = wire::encode(&Msg::Shutdown);
        let routing = wire::encode(&(3u64, vec![NodeId::new(0)]));
        for (kind, body) in [(wire::FRAME_MSG, msg), (wire::FRAME_ROUTING, routing)] {
            let long = [&body[..], &[0]].concat();
            assert_eq!(link.dispatch(kind, &long), LinkEvent::Fatal, "kind {kind}");
            assert_eq!(link.dispatch(kind, &body), LinkEvent::Keep, "kind {kind}");
        }
        assert!(matches!(inbox.try_next(), Ok(Msg::Shutdown)));
        assert!(
            inbox.try_next().is_err(),
            "the long message was not delivered"
        );
        assert_eq!(link.routing.version(), 3);
    }
}
