//! The worker-boundary transport subsystem.
//!
//! Everything that crosses between the controller and a worker — data
//! batches/chunks, quiesce and epoch barriers, migration extract/install,
//! checkpoint snapshot/rollback, stats gathers — goes through a
//! [`Transport`]. Two backends implement it:
//!
//! * [`InProcessTransport`] (the default): workers are threads wired with
//!   crossbeam channels, exactly the substrate every existing test runs
//!   on.
//! * [`NetTransport`]: workers are real processes connected over
//!   length-prefixed TCP or Unix-domain sockets — launched as children by
//!   the controller, or started on *other machines* and admitted through
//!   an authenticated `HELLO` join handshake (see
//!   [`NetConfig::joinable`]). Each socket is bridged onto the same
//!   channel fabric by a per-peer stub thread.
//!
//! The bridge is deliberately thin: a stub *is* the worker as far as the
//! runtime can tell. Its writer thread pulls from the worker's inbox
//! channel and writes frames; its reader thread resolves reply frames
//! into the original reply channels. Liveness keys off the stub's
//! `JoinHandle::is_finished` — but socket death is *not* stub death: the
//! link runs a sequence-numbered session (see [`session`]) and a cut
//! socket is held open for the worker to `RESUME` under the configured
//! [`ReconnectPolicy`], replaying exactly the frames
//! the other side never delivered. Only when that policy is exhausted
//! does the stub exit and degrade *exactly* like a crashed in-process
//! worker: `alive_senders` stops waiting on it, `wait_reply` returns
//! short, and checkpoint recovery takes over. Fault injection upgrades
//! accordingly: in networked mode, [`Transport::inject_fault`] poisons
//! the session *and then* SIGKILLs the worker process, so a real kill
//! deterministically defeats the reconnect policy rather than racing it.
//!
//! See `docs/TRANSPORT.md` for the frame format, session/reconnect
//! semantics, and the two-machine join workflow.

pub(crate) mod lz4;
pub mod session;
pub(crate) mod wire;

pub(crate) mod net;
pub(crate) mod worker;

pub use net::{NetConfig, NetTransport, SocketKind};
pub use session::{ReconnectPolicy, RecvSequencer, SendSequencer, SeqVerdict};
pub use worker::{worker_main, OperatorRegistry};

use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;

use albic_types::NodeId;

use crate::codec::Reader;
use crate::runtime::inbox::InboxRx;
use crate::runtime::{InboxMap, Msg, RoutingShared, RuntimeConfig};
use crate::topology::Topology;

/// Everything a transport needs to bring one worker to life. Opaque
/// outside the engine crate: the runtime assembles it, a [`Transport`]
/// consumes it.
pub struct WorkerSpawn {
    pub(crate) node: NodeId,
    pub(crate) inbox: InboxRx,
    pub(crate) topology: Arc<Topology>,
    pub(crate) routing: Arc<RoutingShared>,
    pub(crate) senders: InboxMap,
    pub(crate) dropped: Arc<AtomicU64>,
    pub(crate) cfg: RuntimeConfig,
}

/// What a finished worker leaves behind: the receiving half of its
/// inbox, which the runtime drains into the graveyard so in-flight tuples
/// are not lost. Boxed: it holds a whole message inline.
pub struct WorkerMailbox(pub(crate) Box<InboxRx>);

/// A borrowed view of the per-worker inbox map, letting transports
/// address control messages to live peers.
pub struct Peers<'a>(pub(crate) &'a InboxMap);

/// A typed transport failure, surfaced instead of a generic io error so
/// callers (and log readers) can tell a handshake timeout from a binary
/// that would not launch.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportError {
    /// The worker did not complete its `HELLO` handshake within the
    /// patience window (launched workers) or join deadline (joiners).
    HandshakeTimeout {
        /// The worker that never said hello.
        node: NodeId,
    },
    /// The worker could not be brought up at all — the binary failed to
    /// launch, or the bridging thread could not be spawned.
    SpawnFailed {
        /// The worker that failed to spawn.
        node: NodeId,
        /// Human-readable cause.
        reason: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::HandshakeTimeout { node } => {
                write!(f, "worker {node} timed out before completing its handshake")
            }
            TransportError::SpawnFailed { node, reason } => {
                write!(f, "worker {node} failed to spawn: {reason}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// A [`Transport::spawn_worker`] failure that still hands the worker's
/// inbox back, so the runtime can treat the node as instantly crashed
/// (drain the mailbox into the graveyard, recover its groups) instead of
/// aborting the job.
pub struct FailedSpawn {
    /// What went wrong.
    pub error: TransportError,
    /// The unclaimed inbox, for the crashed-worker path.
    pub(crate) mailbox: WorkerMailbox,
}

impl FailedSpawn {
    /// Reclaim the mailbox for the graveyard.
    pub(crate) fn into_parts(self) -> (TransportError, WorkerMailbox) {
        (self.error, self.mailbox)
    }
}

impl fmt::Debug for FailedSpawn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FailedSpawn")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

/// The worker boundary. Implementations own how workers run (threads vs
/// processes) and how messages reach them (channels vs sockets); the
/// runtime's reconfiguration, recovery, and statistics logic is identical
/// above either backend.
pub trait Transport: Send {
    /// Bring one worker to life. The returned handle's `is_finished` is
    /// the worker's liveness signal: it must become true when — and only
    /// when — the worker can no longer process messages. On failure the
    /// worker's inbox rides back in the [`FailedSpawn`] so the runtime
    /// can degrade to the crashed-worker path instead of aborting.
    fn spawn_worker(
        &mut self,
        spawn: WorkerSpawn,
    ) -> Result<JoinHandle<WorkerMailbox>, FailedSpawn>;

    /// Push a routing-table update to every worker. In-process workers
    /// share the routing table by `Arc`, so the default substrate does
    /// nothing; networked workers each hold a replica that must be
    /// refreshed before migration traffic referencing the new version
    /// reaches them.
    fn broadcast_routing(&self, version: u64, assignment: &[NodeId], peers: &Peers<'_>);

    /// Kill one worker for fault injection. Returns `false` if the worker
    /// is already gone. In-process this delivers a poison message;
    /// networked, it poisons the session (so the kill cannot race the
    /// reconnect policy) and SIGKILLs the worker process.
    fn inject_fault(&mut self, node: NodeId, peers: &Peers<'_>) -> bool;

    /// Sever one worker's *connection* without touching the worker
    /// itself — a scripted network fault. Returns `true` if a live
    /// connection was cut. Meaningless in-process (no socket exists), so
    /// the default returns `false`.
    fn drop_connection(&mut self, _node: NodeId) -> bool {
        false
    }

    /// The runtime observed this worker dead and reclaimed its handle;
    /// release any per-worker resources (e.g. reap the child process).
    fn worker_gone(&mut self, node: NodeId);

    /// A statistics period ended and the data plane is settled — a safe
    /// point for housekeeping (e.g. pruning resolved reply correlations).
    fn end_period(&mut self) {}

    /// The job is over; tear down all transport resources.
    fn shutdown(&mut self) {}
}

/// The default backend: workers are threads in this process, wired with
/// the same crossbeam channels the runtime has always used.
#[derive(Debug, Default)]
pub struct InProcessTransport;

impl Transport for InProcessTransport {
    fn spawn_worker(
        &mut self,
        spawn: WorkerSpawn,
    ) -> Result<JoinHandle<WorkerMailbox>, FailedSpawn> {
        let node = spawn.node;
        spawn_with(format!("albic-worker-{node}"), spawn, |spawn| {
            WorkerMailbox(Box::new(
                crate::runtime::WorkerCtx::from_spawn(spawn, None).run(),
            ))
        })
        .map_err(|(e, spawn)| FailedSpawn {
            error: TransportError::SpawnFailed {
                node,
                reason: format!("spawn worker thread: {e}"),
            },
            mailbox: WorkerMailbox(Box::new(spawn.inbox)),
        })
    }

    fn broadcast_routing(&self, _version: u64, _assignment: &[NodeId], _peers: &Peers<'_>) {}

    fn inject_fault(&mut self, node: NodeId, peers: &Peers<'_>) -> bool {
        match peers.0.read().get(&node) {
            Some(tx) => tx.send(Msg::Crash).is_ok(),
            None => false,
        }
    }

    fn worker_gone(&mut self, _node: NodeId) {}
}

/// Spawn a named thread running `f(payload)`. Should the OS refuse the
/// thread, the payload comes back with the error instead of dying with
/// the unrun closure — so a worker's inbox can still take the
/// crashed-worker path.
pub(crate) fn spawn_with<T: Send + 'static, R: Send + 'static>(
    name: String,
    payload: T,
    f: impl FnOnce(T) -> R + Send + 'static,
) -> Result<JoinHandle<R>, (std::io::Error, T)> {
    let cell = Arc::new(std::sync::Mutex::new(Some(payload)));
    let theirs = Arc::clone(&cell);
    let take = |cell: &std::sync::Mutex<Option<T>>| {
        cell.lock()
            .expect("spawn cell")
            .take()
            .expect("payload taken once")
    };
    std::thread::Builder::new()
        .name(name)
        .spawn(move || f(take(&theirs)))
        .map_err(|e| (e, take(&cell)))
}

/// Which transport a job runs on — see [`crate::runtime::Runtime::start_with_options`].
#[derive(Debug, Clone, Default)]
pub enum TransportOptions {
    /// Workers are threads in this process (the default, and the test
    /// substrate).
    #[default]
    InProcess,
    /// Workers are child processes (or joined remote daemons) connected
    /// over TCP or Unix-domain sockets.
    Net(NetConfig),
}

/// Drive every frame decoder with arbitrary bytes. Exists for the
/// fail-closed property test: whatever `bytes` contains, this must
/// return without panicking and without attacker-sized allocations.
pub fn fuzz_decode(bytes: &[u8]) {
    // Through the frame assembler first, as a socket would.
    let mut fb = wire::FrameBuffer::new();
    fb.extend(bytes);
    while let Ok(Some((kind, body))) = fb.next_frame() {
        match kind {
            // Session-bearing kinds: split the (seq, ack) header, then
            // decode the payload as the stub/daemon would.
            wire::FRAME_MSG | wire::FRAME_FORWARD | wire::FRAME_REPLY | wire::FRAME_ROUTING => {
                if let Ok((_, _, payload)) = wire::split_session(body) {
                    decode_payload(kind, payload);
                }
            }
            _ => decode_payload(kind, body),
        }
    }
    // And each body decoder on the raw bytes, bypassing framing.
    for kind in wire::FRAME_HELLO..=wire::FRAME_ACK {
        decode_payload(kind, bytes);
    }
    wire::decode_every_reply(bytes);
    let _ = wire::split_session(bytes);
    // The LZ4 decompressor also faces the network (inside state blobs).
    let _ = lz4::decompress(bytes, 4096);
    let _ = crate::chunk::StreamChunk::decode(&mut Reader::new(bytes));
    let _ = Reader::new(bytes).get_value();
}

/// Decode one frame payload the way its receiver does and drop the
/// result. `payload` is a session-bearing frame's body after its `(seq,
/// ack)` header, any other frame's whole body; a `REPLY` is tried as
/// every reply payload type after its id.
fn decode_payload(kind: u8, payload: &[u8]) {
    use wire::{decode, Hello, InitMsg, ResumeMsg, Routing};
    let _ = match kind {
        wire::FRAME_HELLO => decode::<Hello>(payload, None).map(drop),
        wire::FRAME_INIT => decode::<InitMsg>(payload, None).map(drop),
        wire::FRAME_MSG => decode::<Msg>(payload, None).map(drop),
        wire::FRAME_FORWARD => decode::<(NodeId, Msg)>(payload, None).map(drop),
        wire::FRAME_REPLY => {
            wire::decode_every_reply(payload.get(8..).unwrap_or_default());
            Ok(())
        }
        wire::FRAME_ROUTING => decode::<Routing>(payload, None).map(drop),
        wire::FRAME_RESUME => decode::<ResumeMsg>(payload, None).map(drop),
        wire::FRAME_RESUMED | wire::FRAME_ACK => decode::<u64>(payload, None).map(drop),
        _ => Ok(()),
    };
}
