//! Frame and message codecs for the networked transport.
//!
//! Everything that crosses a worker socket is a **length-prefixed
//! frame**: `[u32 len LE][u8 kind][body]`, where `len` counts the kind
//! byte plus the body. Bodies are encoded with the existing
//! [`crate::codec`] primitives, so the transport inherits the codec's
//! hardened, fail-closed decode discipline ([`DecodeError`] carries the
//! offset and what was expected vs found).
//!
//! Reply channels cannot cross a process boundary, so every
//! `Sender`-carrying control message is rewritten in terms of
//! [`ReplyTo`]: in-process it wraps the original channel; on the wire it
//! becomes a correlation id registered in the controller-side
//! [`Correlator`], and the daemon answers with a `REPLY` frame carrying
//! the id plus the encoded payload.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;

use crossbeam::channel::Sender;
use parking_lot::Mutex;

use albic_types::{KeyGroupId, NodeId, OperatorId};

use super::lz4;
use super::net::Conn;
use super::session::{ReconnectPolicy, SendSequencer, SeqVerdict, ACK_EVERY, SEND_QUEUE_LIMIT};
use crate::chunk::StreamChunk;
use crate::codec::{DecodeError, Found, Reader, Writer};
use crate::runtime::{ExtractReply, Msg, ReplyTo, RuntimeConfig};
use crate::stats::StatsCollector;

/// Handshake magic ("ALBIC_W3"): rejects a stray client that is not an
/// albic worker speaking this protocol revision (revision 2 added
/// sessions, join tokens, and compressed state blobs; revision 3 dropped
/// the row-batch message and the `INIT` data-plane field).
pub(crate) const WIRE_MAGIC: u64 = 0x414c_4249_435f_5733;

/// Worker → controller: identity announcement + join token, first frame
/// on a fresh connection.
pub(crate) const FRAME_HELLO: u8 = 1;
/// Controller → worker: job bootstrap (config, operator specs, edges,
/// initial routing, session policy), sent once in response to a valid
/// hello.
pub(crate) const FRAME_INIT: u8 = 2;
/// Controller → worker: one encoded [`Msg`] for the worker's inbox.
/// Session-bearing: body is `[u64 seq][u64 ack][payload]`.
pub(crate) const FRAME_MSG: u8 = 3;
/// Worker → controller: a [`Msg`] to relay to peer `dest` (the
/// controller is the star hub; workers have no direct sockets to each
/// other). Session-bearing.
pub(crate) const FRAME_FORWARD: u8 = 4;
/// Worker → controller: a protocol reply `[u64 id][payload]` resolving a
/// pending [`Correlator`] registration. Session-bearing.
pub(crate) const FRAME_REPLY: u8 = 5;
/// Controller → worker: a routing-table update `[version][assignment]`,
/// applied by the daemon's reader thread *before* later frames are
/// enqueued — the FIFO that makes migration's flip-then-extract ordering
/// hold across the network. Session-bearing.
pub(crate) const FRAME_ROUTING: u8 = 6;
/// Worker → controller: re-attach to an existing session after a socket
/// death — `[magic][node][token][delivered][routing_version]`.
pub(crate) const FRAME_RESUME: u8 = 7;
/// Controller → worker: accept a `RESUME` — `[delivered]`, the
/// controller's own delivery high-water mark on this session.
pub(crate) const FRAME_RESUMED: u8 = 8;
/// Either direction: an explicit cumulative ack `[u64 ack]`, sent when
/// one side has delivered [`ACK_EVERY`] frames without reverse traffic
/// to piggyback on.
pub(crate) const FRAME_ACK: u8 = 9;

/// Upper bound on one frame. A length prefix beyond this is treated as
/// protocol corruption, not an allocation request — a hostile or garbled
/// prefix must never make the decoder reserve gigabytes.
pub(crate) const MAX_FRAME_LEN: usize = 64 << 20;

/// Assemble one frame: `[u32 len LE][kind][body]`.
pub(crate) fn frame_bytes(kind: u8, body: &[u8]) -> Vec<u8> {
    debug_assert!(body.len() < MAX_FRAME_LEN);
    let mut out = Vec::with_capacity(5 + body.len());
    out.extend_from_slice(&((body.len() as u32 + 1).to_le_bytes()));
    out.push(kind);
    out.extend_from_slice(body);
    out
}

/// Assemble one session-bearing frame: `[u32 len LE][kind][u64 seq][u64
/// ack][payload]`. `ack` piggybacks the sender's current delivery
/// high-water mark for the peer's stream.
pub(crate) fn session_frame(kind: u8, seq: u64, ack: u64, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() + 16 < MAX_FRAME_LEN);
    let mut out = Vec::with_capacity(21 + payload.len());
    out.extend_from_slice(&((payload.len() as u32 + 17).to_le_bytes()));
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&ack.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Split a session-bearing frame body into `(seq, ack, payload)`.
/// Fail-closed on short bodies.
pub(crate) fn split_session(body: &[u8]) -> Result<(u64, u64, &[u8]), DecodeError> {
    if body.len() < 16 {
        return Err(DecodeError::new(
            0,
            "session header (seq + ack)",
            Found::Length(body.len() as u64),
        ));
    }
    let seq = u64::from_le_bytes(body[..8].try_into().unwrap());
    let ack = u64::from_le_bytes(body[8..16].try_into().unwrap());
    Ok((seq, ack, &body[16..]))
}

/// Incremental frame assembler: feed it raw socket bytes, pop complete
/// frames. Fails closed on a zero or oversized length prefix.
#[derive(Default)]
pub(crate) struct FrameBuffer {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuffer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, `Ok(None)` if more bytes are needed.
    pub(crate) fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, DecodeError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&self.buf[self.pos..self.pos + 4]);
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(DecodeError::new(
                self.pos,
                "frame length in 1..=64MiB",
                Found::Length(len as u64),
            ));
        }
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let kind = self.buf[self.pos + 4];
        let body = self.buf[self.pos + 5..self.pos + 4 + len].to_vec();
        self.pos += 4 + len;
        self.compact();
        Ok(Some((kind, body)))
    }

    /// Drop the consumed prefix once it dominates the buffer, so the
    /// assembler's memory stays proportional to unparsed bytes.
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// The daemon's shared session link: worker thread (data forwards, epoch
/// announcements) and decoded reply handles all write framed output
/// through one lock, so frames never interleave — and every
/// session-bearing frame is parked in the link's [`SendSequencer`] until
/// the controller acks it, which is what lets the reader thread resume a
/// dead socket and replay exactly the unseen suffix.
#[derive(Clone)]
pub(crate) struct WireOut {
    inner: Arc<LinkInner>,
}

struct LinkInner {
    state: StdMutex<SendHalf>,
    room: Condvar,
    /// Contiguous inbound delivery mark (the reader advances it; writers
    /// stamp it as the piggybacked ack on every outbound frame).
    delivered: AtomicU64,
    /// Highest delivery mark the controller has been told about.
    acked_mark: AtomicU64,
    /// Set when the reconnect policy is exhausted: all further sends
    /// fail immediately and blocked writers wake.
    dead: AtomicBool,
    compress: bool,
}

struct SendHalf {
    conn: Option<Conn>,
    seq: SendSequencer,
}

impl WireOut {
    pub(crate) fn new(conn: Conn, compress: bool) -> Self {
        WireOut {
            inner: Arc::new(LinkInner {
                state: StdMutex::new(SendHalf {
                    conn: Some(conn),
                    seq: SendSequencer::new(SEND_QUEUE_LIMIT),
                }),
                room: Condvar::new(),
                delivered: AtomicU64::new(0),
                acked_mark: AtomicU64::new(0),
                dead: AtomicBool::new(false),
                compress,
            }),
        }
    }

    /// Whether state blobs on this link are LZ4-compressed.
    pub(crate) fn compress(&self) -> bool {
        self.inner.compress
    }

    /// Send one session-bearing frame: assign a sequence number, park the
    /// payload for resend, and write it if the socket is up. Blocks while
    /// the resend queue is full (backpressure during an outage); a write
    /// error is *not* an error here — the frame stays parked and the
    /// reader thread's reconnect loop replays it.
    pub(crate) fn send_frame(&self, kind: u8, body: &[u8]) -> io::Result<()> {
        let mut st = self.inner.state.lock().expect("link lock");
        while !st.seq.has_room() {
            if self.inner.dead.load(Ordering::Acquire) {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "session is dead (reconnect policy exhausted)",
                ));
            }
            let (guard, _) = self
                .inner
                .room
                .wait_timeout(st, Duration::from_millis(50))
                .expect("link lock");
            st = guard;
        }
        if self.inner.dead.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "session is dead (reconnect policy exhausted)",
            ));
        }
        let seq = st.seq.push(kind, body.to_vec());
        let ack = self.inner.delivered.load(Ordering::Acquire);
        if let Some(conn) = st.conn.as_mut() {
            let frame = session_frame(kind, seq, ack, body);
            if conn.write_all(&frame).and_then(|()| conn.flush()).is_err() {
                // Socket died under us: drop the write half and let the
                // reader's reconnect loop take over. The frame is parked.
                st.conn = None;
            } else {
                self.inner.acked_mark.store(ack, Ordering::Release);
            }
        }
        Ok(())
    }

    /// Classify one inbound sequence number (reader thread only).
    pub(crate) fn accept(&self, seq: u64) -> SeqVerdict {
        let delivered = self.inner.delivered.load(Ordering::Acquire);
        if seq == delivered + 1 {
            self.inner.delivered.store(seq, Ordering::Release);
            SeqVerdict::Fresh
        } else if seq <= delivered {
            SeqVerdict::Duplicate
        } else {
            SeqVerdict::Gap
        }
    }

    /// Inbound delivery high-water mark (what a `RESUME` advertises).
    pub(crate) fn delivered(&self) -> u64 {
        self.inner.delivered.load(Ordering::Acquire)
    }

    /// Apply the controller's cumulative ack to the resend queue.
    pub(crate) fn peer_ack(&self, upto: u64) {
        let mut st = self.inner.state.lock().expect("link lock");
        if st.seq.ack(upto) {
            self.inner.room.notify_all();
        }
    }

    /// Send an explicit `ACK` if enough unacknowledged deliveries have
    /// accumulated (reader thread, after draining a read).
    pub(crate) fn flush_ack(&self) {
        let delivered = self.inner.delivered.load(Ordering::Acquire);
        if delivered - self.inner.acked_mark.load(Ordering::Acquire) < ACK_EVERY {
            return;
        }
        let mut st = self.inner.state.lock().expect("link lock");
        if let Some(conn) = st.conn.as_mut() {
            let frame = frame_bytes(FRAME_ACK, &delivered.to_le_bytes());
            if conn.write_all(&frame).and_then(|()| conn.flush()).is_ok() {
                self.inner.acked_mark.store(delivered, Ordering::Release);
            } else {
                st.conn = None;
            }
        }
    }

    /// Install a fresh socket after a successful `RESUME`/`RESUMED`
    /// exchange: prune everything the controller already delivered, then
    /// replay the parked suffix in order.
    pub(crate) fn resume(&self, mut conn: Conn, peer_delivered: u64) -> io::Result<()> {
        let mut st = self.inner.state.lock().expect("link lock");
        st.seq.ack(peer_delivered);
        let ack = self.inner.delivered.load(Ordering::Acquire);
        for (seq, kind, body) in st.seq.pending(peer_delivered) {
            let frame = session_frame(kind, seq, ack, body);
            conn.write_all(&frame)?;
        }
        conn.flush()?;
        self.inner.acked_mark.store(ack, Ordering::Release);
        st.conn = Some(conn);
        self.inner.room.notify_all();
        Ok(())
    }

    /// The reconnect policy is exhausted: fail all current and future
    /// sends so the worker loop winds down.
    pub(crate) fn mark_dead(&self) {
        self.inner.dead.store(true, Ordering::Release);
        self.inner.room.notify_all();
    }

    /// Relay `msg` to peer `dest` through the controller hub. Only called
    /// on the daemon side, where every [`ReplyTo`] inside `msg` is
    /// already a wire id.
    pub(crate) fn forward(&self, dest: NodeId, msg: &Msg) -> io::Result<()> {
        let mut w = Writer::new();
        w.put_u64(dest.raw() as u64);
        encode_msg(msg, &mut w, self.inner.compress, &mut |_| {
            unreachable!("daemon-side reply handles are always wire ids")
        });
        self.send_frame(FRAME_FORWARD, &w.into_bytes())
    }
}

// ---- Reply payloads ----------------------------------------------------

/// A protocol reply payload that can cross the wire — one impl per reply
/// channel type the [`Msg`] enum carries. `compress` governs state-blob
/// payloads (checkpoint snapshots); scalar payloads ignore it.
pub(crate) trait ReplyPayload: Sized {
    fn encode_payload(&self, w: &mut Writer, compress: bool);
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

impl ReplyPayload for () {
    fn encode_payload(&self, _w: &mut Writer, _compress: bool) {}
    fn decode_payload(_r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

impl ReplyPayload for NodeId {
    fn encode_payload(&self, w: &mut Writer, _compress: bool) {
        w.put_u64(self.raw() as u64);
    }
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(NodeId::new(r.get_u64()? as u32))
    }
}

impl ReplyPayload for (KeyGroupId, ExtractReply) {
    fn encode_payload(&self, w: &mut Writer, _compress: bool) {
        w.put_u64(self.0.raw() as u64);
        match &self.1 {
            ExtractReply::Installed {
                state_bytes,
                wire_bytes,
            } => {
                w.put_u64(0);
                w.put_u64(*state_bytes as u64);
                w.put_u64(*wire_bytes as u64);
            }
            ExtractReply::DestinationGone => w.put_u64(1),
        }
    }
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let kg = KeyGroupId::new(r.get_u64()? as u32);
        let reply = match r.get_u64()? {
            0 => ExtractReply::Installed {
                state_bytes: r.get_u64()? as usize,
                wire_bytes: r.get_u64()? as usize,
            },
            1 => ExtractReply::DestinationGone,
            tag => {
                return Err(DecodeError::new(
                    r.offset(),
                    "extract-reply tag 0..=1",
                    Found::Length(tag),
                ))
            }
        };
        Ok((kg, reply))
    }
}

impl ReplyPayload for (NodeId, StatsCollector) {
    fn encode_payload(&self, w: &mut Writer, _compress: bool) {
        w.put_u64(self.0.raw() as u64);
        encode_stats(&self.1, w);
    }
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let node = NodeId::new(r.get_u64()? as u32);
        Ok((node, decode_stats(r)?))
    }
}

impl ReplyPayload for Option<Vec<u8>> {
    fn encode_payload(&self, w: &mut Writer, _compress: bool) {
        match self {
            None => w.put_u64(0),
            Some(bytes) => {
                w.put_u64(1);
                put_byte_vec(w, bytes);
            }
        }
    }
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u64()? {
            0 => Ok(None),
            1 => Ok(Some(get_byte_vec(r)?)),
            tag => Err(DecodeError::new(
                r.offset(),
                "option tag 0..=1",
                Found::Length(tag),
            )),
        }
    }
}

impl ReplyPayload for (NodeId, Vec<(u32, Vec<u8>)>) {
    fn encode_payload(&self, w: &mut Writer, compress: bool) {
        w.put_u64(self.0.raw() as u64);
        encode_states(&self.1, w, compress);
    }
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let node = NodeId::new(r.get_u64()? as u32);
        Ok((node, decode_states(r)?))
    }
}

impl<T: ReplyPayload> ReplyTo<T> {
    /// Deliver a reply: through the channel in-process, as a `REPLY`
    /// frame up the daemon's socket, or silently dropped on the
    /// controller-relay passthrough (`Wire` without an uplink — the
    /// controller only re-encodes such handles, it never answers them).
    /// Returns the payload on failure so callers keep their existing
    /// loss handling.
    pub(crate) fn send(&self, v: T) -> Result<(), T> {
        match self {
            ReplyTo::Chan(tx) => tx.send(v).map_err(|e| e.0),
            ReplyTo::Wire { id, out: Some(o) } => {
                let mut w = Writer::new();
                w.put_u64(*id);
                v.encode_payload(&mut w, o.compress());
                match o.send_frame(FRAME_REPLY, &w.into_bytes()) {
                    Ok(()) => Ok(()),
                    Err(_) => Err(v),
                }
            }
            ReplyTo::Wire { out: None, .. } => Ok(()),
        }
    }
}

// ---- Correlator --------------------------------------------------------

/// A reply channel parked on the controller while its wire id is in
/// flight. Cloned out of the table to fire, so decode + send happen
/// outside the lock.
#[derive(Clone)]
pub(crate) enum Pending {
    Ack(Sender<()>),
    Extract(Sender<(KeyGroupId, ExtractReply)>),
    EpochDone(Sender<NodeId>),
    Stats(Sender<(NodeId, StatsCollector)>),
    Probe(Sender<Option<Vec<u8>>>),
    Snapshot(Sender<(NodeId, Vec<(u32, Vec<u8>)>)>),
}

impl Pending {
    /// Decode the reply payload for this registration's type and deliver
    /// it. A closed receiver is normal (no-op barrier waves drop theirs
    /// immediately), so channel send errors are ignored.
    fn fire(&self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        match self {
            Pending::Ack(tx) => {
                let _ = tx.send(ReplyPayload::decode_payload(r)?);
            }
            Pending::Extract(tx) => {
                let _ = tx.send(ReplyPayload::decode_payload(r)?);
            }
            Pending::EpochDone(tx) => {
                let _ = tx.send(ReplyPayload::decode_payload(r)?);
            }
            Pending::Stats(tx) => {
                let _ = tx.send(ReplyPayload::decode_payload(r)?);
            }
            Pending::Probe(tx) => {
                let _ = tx.send(ReplyPayload::decode_payload(r)?);
            }
            Pending::Snapshot(tx) => {
                let _ = tx.send(ReplyPayload::decode_payload(r)?);
            }
        }
        Ok(())
    }
}

/// Controller-side registry mapping wire ids to parked reply channels.
/// Shared by every per-worker stub thread — essential for migration,
/// where the `done` handle registered while encoding an `Extract` to
/// worker A is resolved by a `REPLY` frame arriving from worker B.
///
/// Entries are multi-shot (an epoch wave's `install_done` fires once per
/// move) and garbage-collected on two axes:
///
/// * **generation** — [`Correlator::advance_gen`] runs at period
///   boundaries, when the data plane is settled and no pre-boundary
///   protocol reply can still be in flight;
/// * **session** — [`Correlator::purge_session`] runs when the runtime
///   declares a worker dead, dropping every entry registered before the
///   death so a reply id replayed by a *resumed* (or impersonated)
///   session cannot resolve a stale channel.
pub(crate) struct Correlator {
    next: AtomicU64,
    gen: AtomicU64,
    session: AtomicU64,
    entries: Mutex<HashMap<u64, (u64, u64, Pending)>>,
}

impl Correlator {
    pub(crate) fn new() -> Self {
        Correlator {
            next: AtomicU64::new(1),
            gen: AtomicU64::new(0),
            session: AtomicU64::new(0),
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// Park a reply channel, returning its wire id.
    pub(crate) fn register(&self, p: Pending) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let gen = self.gen.load(Ordering::Relaxed);
        let session = self.session.load(Ordering::Relaxed);
        self.entries.lock().insert(id, (gen, session, p));
        id
    }

    /// Resolve a `REPLY` frame: decode the payload with the parked
    /// channel's type and deliver it. An unknown id (pruned generation or
    /// session, or a duplicate reply racing the GC) is ignored.
    pub(crate) fn fire(&self, id: u64, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let pending = self.entries.lock().get(&id).map(|(_, _, p)| p.clone());
        match pending {
            Some(p) => p.fire(r),
            None => Ok(()),
        }
    }

    /// Start a new generation and prune registrations older than the
    /// previous one. Called at period boundaries: any registration from
    /// two settles ago has either fired or can never fire.
    pub(crate) fn advance_gen(&self) {
        let gen = self.gen.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(cutoff) = gen.checked_sub(1) {
            self.entries.lock().retain(|_, (g, _, _)| *g >= cutoff);
        }
    }

    /// A worker died: start a new session epoch and drop every entry
    /// registered under an older one. Safe because the runtime only
    /// declares death after its liveness-aware waits have returned — any
    /// channel parked before the death is either resolved or abandoned by
    /// its waiter.
    pub(crate) fn purge_session(&self) {
        let session = self.session.fetch_add(1, Ordering::Relaxed) + 1;
        self.entries.lock().retain(|_, (_, s, _)| *s >= session);
    }
}

// ---- Message codec -----------------------------------------------------

/// Length-prefixed byte blob; [`Writer::put_bytes`] itself is raw, so
/// every blob on the wire goes through this pair.
fn put_byte_vec(w: &mut Writer, bytes: &[u8]) {
    w.put_u64(bytes.len() as u64);
    w.put_bytes(bytes);
}

fn get_byte_vec(r: &mut Reader<'_>) -> Result<Vec<u8>, DecodeError> {
    let n = r.get_u64()? as usize;
    Ok(r.get_bytes(n)?.to_vec())
}

/// Write one state blob, optionally LZ4-compressed:
/// `[u64 codec tag][if lz4: u64 raw_len][length-prefixed payload]`.
/// The encoding is self-describing, so decode never consults config.
/// Compression is skipped for tiny blobs and whenever it fails to
/// shrink. Returns the number of payload bytes that hit the wire.
pub(crate) fn put_state_blob(w: &mut Writer, bytes: &[u8], compress: bool) -> usize {
    if compress && bytes.len() >= 64 {
        let packed = lz4::compress(bytes);
        if packed.len() < bytes.len() {
            w.put_u64(1);
            w.put_u64(bytes.len() as u64);
            put_byte_vec(w, &packed);
            return packed.len();
        }
    }
    w.put_u64(0);
    put_byte_vec(w, bytes);
    bytes.len()
}

/// Read one state blob, returning `(raw bytes, wire payload bytes)`.
/// Fail-closed: the claimed raw length is bounded by [`MAX_FRAME_LEN`]
/// before any allocation, and LZ4 decompression is strictly checked.
pub(crate) fn get_state_blob(r: &mut Reader<'_>) -> Result<(Vec<u8>, usize), DecodeError> {
    let at = r.offset();
    match r.get_u64()? {
        0 => {
            let bytes = get_byte_vec(r)?;
            let n = bytes.len();
            Ok((bytes, n))
        }
        1 => {
            let raw_len = r.get_u64()? as usize;
            if raw_len > MAX_FRAME_LEN {
                return Err(DecodeError::new(
                    at,
                    "raw length within 64MiB",
                    Found::Length(raw_len as u64),
                ));
            }
            let packed = get_byte_vec(r)?;
            let wire = packed.len();
            Ok((lz4::decompress(&packed, raw_len)?, wire))
        }
        tag => Err(DecodeError::new(
            at,
            "state-blob codec tag 0..=1",
            Found::Length(tag),
        )),
    }
}

fn encode_states(states: &[(u32, Vec<u8>)], w: &mut Writer, compress: bool) {
    w.put_u64(states.len() as u64);
    for (g, bytes) in states {
        w.put_u64(*g as u64);
        put_state_blob(w, bytes, compress);
    }
}

fn decode_states(r: &mut Reader<'_>) -> Result<Vec<(u32, Vec<u8>)>, DecodeError> {
    let n = r.get_u64()?;
    let mut states = Vec::new();
    for _ in 0..n {
        let g = r.get_u64()? as u32;
        states.push((g, get_state_blob(r)?.0));
    }
    Ok(states)
}

/// Encode a stats collector with deterministic (sorted) map order, so a
/// loopback run's collected bytes are bit-stable.
fn encode_stats(c: &StatsCollector, w: &mut Writer) {
    for m in [
        &c.tuples_in,
        &c.cross_in,
        &c.cross_out,
        &c.state_bytes,
        &c.group_cost,
    ] {
        let mut keys: Vec<u32> = m.keys().copied().collect();
        keys.sort_unstable();
        w.put_u64(keys.len() as u64);
        for k in keys {
            w.put_u64(k as u64);
            w.put_f64(m[&k]);
        }
    }
    let mut cells: Vec<(u32, u32)> = c.out_matrix.keys().copied().collect();
    cells.sort_unstable();
    w.put_u64(cells.len() as u64);
    for (i, j) in cells {
        w.put_u64(i as u64);
        w.put_u64(j as u64);
        w.put_f64(c.out_matrix[&(i, j)]);
    }
    w.put_f64(c.ingested);
    w.put_f64(c.emitted);
    w.put_f64(c.dropped);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<StatsCollector, DecodeError> {
    let mut c = StatsCollector::new();
    {
        let maps = [
            &mut c.tuples_in,
            &mut c.cross_in,
            &mut c.cross_out,
            &mut c.state_bytes,
            &mut c.group_cost,
        ];
        for m in maps {
            let n = r.get_u64()?;
            for _ in 0..n {
                let k = r.get_u64()? as u32;
                let v = r.get_f64()?;
                m.insert(k, v);
            }
        }
    }
    let n = r.get_u64()?;
    for _ in 0..n {
        let i = r.get_u64()? as u32;
        let j = r.get_u64()? as u32;
        let v = r.get_f64()?;
        c.out_matrix.insert((i, j), v);
    }
    c.ingested = r.get_f64()?;
    c.emitted = r.get_f64()?;
    c.dropped = r.get_f64()?;
    Ok(c)
}

fn reply_id<T>(
    reply: &ReplyTo<T>,
    reg: &mut dyn FnMut(Pending) -> u64,
    wrap: fn(Sender<T>) -> Pending,
) -> u64 {
    match reply {
        ReplyTo::Chan(tx) => reg(wrap(tx.clone())),
        ReplyTo::Wire { id, .. } => *id,
    }
}

fn wire_reply<T>(r: &mut Reader<'_>, out: Option<&WireOut>) -> Result<ReplyTo<T>, DecodeError> {
    Ok(ReplyTo::Wire {
        id: r.get_u64()?,
        out: out.cloned(),
    })
}

/// Encode one [`Msg`] body (no frame header). `reg` parks each in-process
/// reply channel in the correlator and returns its wire id; already-wire
/// handles pass their id through unchanged (the controller relaying a
/// worker-to-worker `Install` must preserve the originator's id).
/// `compress` applies LZ4 to state blobs (`Install` payloads and
/// `Rollback` checkpoint states).
pub(crate) fn encode_msg(
    msg: &Msg,
    w: &mut Writer,
    compress: bool,
    reg: &mut dyn FnMut(Pending) -> u64,
) {
    match msg {
        Msg::DataChunk(chunk) => {
            w.put_u64(1);
            chunk.encode(w);
        }
        Msg::PrepareReceive { kg, ack } => {
            w.put_u64(2);
            w.put_u64(kg.raw() as u64);
            w.put_u64(reply_id(ack, reg, Pending::Ack));
        }
        Msg::CancelReceive { kg } => {
            w.put_u64(3);
            w.put_u64(kg.raw() as u64);
        }
        Msg::Extract { kg, dest, done } => {
            w.put_u64(4);
            w.put_u64(kg.raw() as u64);
            w.put_u64(dest.raw() as u64);
            w.put_u64(reply_id(done, reg, Pending::Extract));
        }
        Msg::Install {
            kg,
            op,
            bytes,
            done,
            ..
        } => {
            w.put_u64(5);
            w.put_u64(kg.raw() as u64);
            w.put_u64(op.raw() as u64);
            put_state_blob(w, bytes, compress);
            w.put_u64(reply_id(done, reg, Pending::Extract));
        }
        Msg::EpochBarrier {
            epoch,
            moves,
            participants,
            install_done,
            done,
        } => {
            w.put_u64(6);
            w.put_u64(*epoch);
            w.put_u64(moves.len() as u64);
            for (kg, from, to) in moves.iter() {
                w.put_u64(kg.raw() as u64);
                w.put_u64(from.raw() as u64);
                w.put_u64(to.raw() as u64);
            }
            w.put_u64(participants.len() as u64);
            for p in participants.iter() {
                w.put_u64(p.raw() as u64);
            }
            w.put_u64(reply_id(install_done, reg, Pending::Extract));
            w.put_u64(reply_id(done, reg, Pending::EpochDone));
        }
        Msg::PeerBarrier { epoch, from } => {
            w.put_u64(7);
            w.put_u64(*epoch);
            w.put_u64(from.raw() as u64);
        }
        Msg::Barrier(ack) => {
            w.put_u64(8);
            w.put_u64(reply_id(ack, reg, Pending::Ack));
        }
        Msg::FlushWindows { ack } => {
            w.put_u64(9);
            w.put_u64(reply_id(ack, reg, Pending::Ack));
        }
        Msg::CollectStats { reply } => {
            w.put_u64(10);
            w.put_u64(reply_id(reply, reg, Pending::Stats));
        }
        Msg::ProbeState { kg, reply } => {
            w.put_u64(11);
            w.put_u64(kg.raw() as u64);
            w.put_u64(reply_id(reply, reg, Pending::Probe));
        }
        Msg::SnapshotStates { delta_only, reply } => {
            w.put_u64(12);
            w.put_u64(u64::from(*delta_only));
            w.put_u64(reply_id(reply, reg, Pending::Snapshot));
        }
        Msg::Rollback {
            states,
            spilled,
            spill_dir,
            ack,
        } => {
            w.put_u64(13);
            encode_states(states, w, compress);
            w.put_u64(spilled.len() as u64);
            for g in spilled {
                w.put_u64(*g as u64);
            }
            match spill_dir {
                Some(dir) => {
                    w.put_u64(1);
                    w.put_str(dir);
                }
                None => w.put_u64(0),
            }
            w.put_u64(reply_id(ack, reg, Pending::Ack));
        }
        Msg::Crash => w.put_u64(14),
        Msg::Shutdown => w.put_u64(15),
        Msg::RoutingUpdate {
            version,
            assignment,
        } => {
            w.put_u64(16);
            w.put_u64(*version);
            w.put_u64(assignment.len() as u64);
            for n in assignment {
                w.put_u64(n.raw() as u64);
            }
        }
        Msg::SpillGroups { dir, groups } => {
            w.put_u64(17);
            w.put_str(dir);
            w.put_u64(groups.len() as u64);
            for g in groups {
                w.put_u64(*g as u64);
            }
        }
    }
}

/// Decode one [`Msg`] body. With `out` set (daemon side) every reply
/// handle becomes a live wire handle answering up that socket; without
/// it (controller relay) the handles are inert passthroughs that only
/// survive re-encoding.
pub(crate) fn decode_msg(r: &mut Reader<'_>, out: Option<&WireOut>) -> Result<Msg, DecodeError> {
    let at = r.offset();
    let tag = r.get_u64()?;
    Ok(match tag {
        1 => Msg::DataChunk(StreamChunk::decode(r)?),
        2 => Msg::PrepareReceive {
            kg: KeyGroupId::new(r.get_u64()? as u32),
            ack: wire_reply(r, out)?,
        },
        3 => Msg::CancelReceive {
            kg: KeyGroupId::new(r.get_u64()? as u32),
        },
        4 => Msg::Extract {
            kg: KeyGroupId::new(r.get_u64()? as u32),
            dest: NodeId::new(r.get_u64()? as u32),
            done: wire_reply(r, out)?,
        },
        5 => {
            let kg = KeyGroupId::new(r.get_u64()? as u32);
            let op = OperatorId::new(r.get_u64()? as u32);
            let (bytes, wire_bytes) = get_state_blob(r)?;
            Msg::Install {
                kg,
                op,
                bytes,
                wire_bytes,
                done: wire_reply(r, out)?,
            }
        }
        6 => {
            let epoch = r.get_u64()?;
            let n = r.get_u64()?;
            let mut moves = Vec::new();
            for _ in 0..n {
                let kg = KeyGroupId::new(r.get_u64()? as u32);
                let from = NodeId::new(r.get_u64()? as u32);
                let to = NodeId::new(r.get_u64()? as u32);
                moves.push((kg, from, to));
            }
            let n = r.get_u64()?;
            let mut participants = Vec::new();
            for _ in 0..n {
                participants.push(NodeId::new(r.get_u64()? as u32));
            }
            Msg::EpochBarrier {
                epoch,
                moves: Arc::new(moves),
                participants: Arc::new(participants),
                install_done: wire_reply(r, out)?,
                done: wire_reply(r, out)?,
            }
        }
        7 => Msg::PeerBarrier {
            epoch: r.get_u64()?,
            from: NodeId::new(r.get_u64()? as u32),
        },
        8 => Msg::Barrier(wire_reply(r, out)?),
        9 => Msg::FlushWindows {
            ack: wire_reply(r, out)?,
        },
        10 => Msg::CollectStats {
            reply: wire_reply(r, out)?,
        },
        11 => Msg::ProbeState {
            kg: KeyGroupId::new(r.get_u64()? as u32),
            reply: wire_reply(r, out)?,
        },
        12 => Msg::SnapshotStates {
            delta_only: r.get_u64()? != 0,
            reply: wire_reply(r, out)?,
        },
        13 => {
            let states = decode_states(r)?;
            let n = r.get_u64()?;
            let mut spilled = Vec::new();
            for _ in 0..n {
                spilled.push(r.get_u64()? as u32);
            }
            let spill_dir = match r.get_u64()? {
                0 => None,
                _ => Some(r.get_str()?),
            };
            Msg::Rollback {
                states,
                spilled,
                spill_dir,
                ack: wire_reply(r, out)?,
            }
        }
        14 => Msg::Crash,
        15 => Msg::Shutdown,
        16 => {
            let version = r.get_u64()?;
            let n = r.get_u64()?;
            let mut assignment = Vec::new();
            for _ in 0..n {
                assignment.push(NodeId::new(r.get_u64()? as u32));
            }
            Msg::RoutingUpdate {
                version,
                assignment,
            }
        }
        17 => {
            let dir = r.get_str()?;
            let n = r.get_u64()?;
            let mut groups = Vec::new();
            for _ in 0..n {
                groups.push(r.get_u64()? as u32);
            }
            Msg::SpillGroups { dir, groups }
        }
        tag => {
            return Err(DecodeError::new(
                at,
                "message tag 1..=17",
                Found::Length(tag),
            ))
        }
    })
}

// ---- Handshake & bootstrap codecs --------------------------------------

/// `HELLO` body: magic + the node id the worker was launched (or is
/// joining) for + the shared-secret join token.
pub(crate) fn encode_hello(node: NodeId, token: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(WIRE_MAGIC);
    w.put_u64(node.raw() as u64);
    w.put_str(token);
    w.into_bytes()
}

pub(crate) fn decode_hello(r: &mut Reader<'_>) -> Result<(NodeId, String), DecodeError> {
    let at = r.offset();
    let magic = r.get_u64()?;
    if magic != WIRE_MAGIC {
        return Err(DecodeError::new(at, "wire magic", Found::Length(magic)));
    }
    let node = NodeId::new(r.get_u64()? as u32);
    let token = r.get_str()?;
    Ok((node, token))
}

/// A worker's `RESUME` request: re-attach to node `node`'s session after
/// a socket death.
pub(crate) struct ResumeMsg {
    pub(crate) node: NodeId,
    pub(crate) token: String,
    /// The worker's contiguous inbound delivery mark — the controller
    /// resends everything after it.
    pub(crate) delivered: u64,
    /// The routing version the worker last installed; the controller
    /// tops the resumed stream up with a fresh snapshot if it moved on.
    pub(crate) routing_version: u64,
}

pub(crate) fn encode_resume(msg: &ResumeMsg) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(WIRE_MAGIC);
    w.put_u64(msg.node.raw() as u64);
    w.put_str(&msg.token);
    w.put_u64(msg.delivered);
    w.put_u64(msg.routing_version);
    w.into_bytes()
}

pub(crate) fn decode_resume(r: &mut Reader<'_>) -> Result<ResumeMsg, DecodeError> {
    let at = r.offset();
    let magic = r.get_u64()?;
    if magic != WIRE_MAGIC {
        return Err(DecodeError::new(at, "wire magic", Found::Length(magic)));
    }
    Ok(ResumeMsg {
        node: NodeId::new(r.get_u64()? as u32),
        token: r.get_str()?,
        delivered: r.get_u64()?,
        routing_version: r.get_u64()?,
    })
}

/// `RESUMED` body: the controller's own delivery mark on the session.
pub(crate) fn encode_resumed(delivered: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(delivered);
    w.into_bytes()
}

pub(crate) fn decode_resumed(r: &mut Reader<'_>) -> Result<u64, DecodeError> {
    r.get_u64()
}

/// `ACK` body: one cumulative ack.
pub(crate) fn decode_ack(r: &mut Reader<'_>) -> Result<u64, DecodeError> {
    r.get_u64()
}

/// One operator of the `INIT` bootstrap: the daemon rebuilds the
/// topology from these, resolving `logic` against its local registry.
pub(crate) struct InitOp {
    pub(crate) name: String,
    pub(crate) logic: String,
    pub(crate) key_groups: u32,
    pub(crate) is_source: bool,
}

/// The `INIT` bootstrap a daemon needs to become a worker: data-plane
/// config, the operator network, the initial routing table, and the
/// session policy (reconnect schedule + compression) both peers must
/// agree on.
pub(crate) struct InitMsg {
    pub(crate) cfg: RuntimeConfig,
    pub(crate) ops: Vec<InitOp>,
    pub(crate) edges: Vec<(u32, u32)>,
    pub(crate) routing_version: u64,
    pub(crate) assignment: Vec<NodeId>,
    pub(crate) compression: bool,
    pub(crate) reconnect: ReconnectPolicy,
}

pub(crate) fn encode_init(init: &InitMsg, w: &mut Writer) {
    w.put_u64(init.cfg.batch_size as u64);
    w.put_u64(init.cfg.channel_capacity as u64);
    w.put_u64(init.cfg.flush_interval.as_nanos() as u64);
    w.put_u64(init.cfg.barrier_interval as u64);
    w.put_u64(init.ops.len() as u64);
    for op in &init.ops {
        w.put_str(&op.name);
        w.put_str(&op.logic);
        w.put_u64(op.key_groups as u64);
        w.put_u64(op.is_source as u64);
    }
    w.put_u64(init.edges.len() as u64);
    for (from, to) in &init.edges {
        w.put_u64(*from as u64);
        w.put_u64(*to as u64);
    }
    w.put_u64(init.routing_version);
    w.put_u64(init.assignment.len() as u64);
    for n in &init.assignment {
        w.put_u64(n.raw() as u64);
    }
    w.put_u64(init.compression as u64);
    w.put_u64(init.reconnect.attempts as u64);
    w.put_u64(init.reconnect.base_backoff.as_nanos() as u64);
    w.put_u64(init.reconnect.max_backoff.as_nanos() as u64);
    w.put_f64(init.reconnect.jitter);
}

pub(crate) fn decode_init(r: &mut Reader<'_>) -> Result<InitMsg, DecodeError> {
    let batch_size = r.get_u64()? as usize;
    let channel_capacity = r.get_u64()? as usize;
    let flush_nanos = r.get_u64()?;
    let barrier_interval = r.get_u64()? as usize;
    let cfg = RuntimeConfig {
        batch_size,
        channel_capacity,
        flush_interval: std::time::Duration::from_nanos(flush_nanos),
        barrier_interval,
    };
    let n = r.get_u64()?;
    let mut ops = Vec::new();
    for _ in 0..n {
        let name = r.get_str()?;
        let logic = r.get_str()?;
        let key_groups = r.get_u64()? as u32;
        let is_source = r.get_u64()? != 0;
        ops.push(InitOp {
            name,
            logic,
            key_groups,
            is_source,
        });
    }
    let n = r.get_u64()?;
    let mut edges = Vec::new();
    for _ in 0..n {
        edges.push((r.get_u64()? as u32, r.get_u64()? as u32));
    }
    let routing_version = r.get_u64()?;
    let n = r.get_u64()?;
    let mut assignment = Vec::new();
    for _ in 0..n {
        assignment.push(NodeId::new(r.get_u64()? as u32));
    }
    let compression = r.get_u64()? != 0;
    let reconnect = ReconnectPolicy {
        attempts: r.get_u64()?.min(u32::MAX as u64) as u32,
        base_backoff: std::time::Duration::from_nanos(r.get_u64()?),
        max_backoff: std::time::Duration::from_nanos(r.get_u64()?),
        jitter: r.get_f64()?.clamp(0.0, 1.0),
    };
    Ok(InitMsg {
        cfg,
        ops,
        edges,
        routing_version,
        assignment,
        compression,
        reconnect,
    })
}

/// `ROUTING` body: version stamp + full assignment.
pub(crate) fn encode_routing(version: u64, assignment: &[NodeId]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(version);
    w.put_u64(assignment.len() as u64);
    for n in assignment {
        w.put_u64(n.raw() as u64);
    }
    w.into_bytes()
}

pub(crate) fn decode_routing(r: &mut Reader<'_>) -> Result<(u64, Vec<NodeId>), DecodeError> {
    let version = r.get_u64()?;
    let n = r.get_u64()?;
    let mut assignment = Vec::new();
    for _ in 0..n {
        assignment.push(NodeId::new(r.get_u64()? as u32));
    }
    Ok((version, assignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Value;

    /// Message tag 0 once carried row batches; that frame no longer
    /// exists. A `MSG` or `FORWARD` body bearing it — here shaped like a
    /// well-formed one-tuple batch of the old layout — must fail at the
    /// tag with a typed error instead of being parsed.
    #[test]
    fn message_tag_zero_is_rejected_with_a_typed_decode_error() {
        let mut w = Writer::new();
        w.put_u64(0); // tag
        w.put_u64(1); // rows
        w.put_u64(0); // operator
        w.put_u64(0); // key group
        w.put_u64(7); // key
        w.put_value(&Value::Int(1));
        w.put_u64(0); // timestamp
        let body = w.into_bytes();
        let mut forward = Writer::new();
        forward.put_u64(2); // destination node
        forward.put_bytes(&body);
        let forward = forward.into_bytes();

        for (kind, payload) in [(FRAME_MSG, &body), (FRAME_FORWARD, &forward)] {
            let mut frames = FrameBuffer::new();
            frames.extend(&session_frame(kind, 1, 0, payload));
            let (got_kind, frame) = frames.next_frame().unwrap().expect("one whole frame");
            assert_eq!(got_kind, kind);
            let (_, _, payload) = split_session(&frame).unwrap();
            let mut r = Reader::new(payload);
            if kind == FRAME_FORWARD {
                assert_eq!(r.get_u64().unwrap(), 2);
            }
            let at = r.offset();
            let Err(err) = decode_msg(&mut r, None) else {
                panic!("frame kind {kind}: tag 0 decoded as a message");
            };
            assert_eq!(err.offset, at, "frame kind {kind}");
            assert_eq!(err.expected, "message tag 1..=17");
            assert!(matches!(err.found, Found::Length(0)), "{err}");
        }
    }

    /// `INIT` carries exactly the runtime config's four fields (no
    /// data-plane tag) and round-trips every field of the bootstrap.
    #[test]
    fn init_round_trips_with_exactly_four_config_fields() {
        let init = InitMsg {
            cfg: RuntimeConfig {
                batch_size: 7,
                channel_capacity: 33,
                flush_interval: Duration::from_micros(150),
                barrier_interval: 96,
            },
            ops: vec![
                InitOp {
                    name: "events".into(),
                    logic: "identity".into(),
                    key_groups: 8,
                    is_source: true,
                },
                InitOp {
                    name: "count".into(),
                    logic: "counting".into(),
                    key_groups: 4,
                    is_source: false,
                },
            ],
            edges: vec![(0, 1)],
            routing_version: 5,
            assignment: (0..12).map(|g| NodeId::new(g % 3)).collect(),
            compression: true,
            reconnect: ReconnectPolicy {
                attempts: 3,
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(80),
                jitter: 0.25,
            },
        };
        let mut w = Writer::new();
        encode_init(&init, &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_init(&mut r).expect("decode INIT");
        assert!(r.is_done(), "{} trailing bytes", r.remaining());
        assert_eq!(back.cfg, init.cfg);
        let ops = |m: &InitMsg| -> Vec<(String, String, u32, bool)> {
            m.ops
                .iter()
                .map(|o| (o.name.clone(), o.logic.clone(), o.key_groups, o.is_source))
                .collect()
        };
        assert_eq!(ops(&back), ops(&init));
        assert_eq!(back.edges, init.edges);
        assert_eq!(back.routing_version, init.routing_version);
        assert_eq!(back.assignment, init.assignment);
        assert_eq!(back.compression, init.compression);
        assert_eq!(back.reconnect, init.reconnect);
    }
}
