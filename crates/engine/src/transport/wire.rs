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
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

use crossbeam::channel::Sender;
use parking_lot::Mutex;

use albic_types::{KeyGroupId, NodeId, OperatorId};

use super::lz4;
use super::net::Conn;
use super::session::{ReconnectPolicy, RecvSequencer, SendSequencer, SeqVerdict, SEND_QUEUE_LIMIT};
use crate::checkpoint::{CheckpointMode, SpillExtent};
use crate::chunk::StreamChunk;
use crate::codec::{DecodeError, Found, Reader, Writer};
use crate::runtime::{
    Activity, InstallReply, Msg, QueueSample, ReplyTo, RuntimeConfig, StatsReply,
};
use crate::stats::StatsCollector;

/// Handshake magic ("ALBIC_W6"): rejects a stray client that is not an
/// albic worker speaking this protocol revision (revision 2 added
/// sessions, join tokens, and compressed state blobs; revision 3 dropped
/// the row-batch message and the `INIT` data-plane field; revision 4
/// added the daemon's inbox gauge to the statistics reply; revision 5
/// made barrier and window-flush acks carry the worker's activity
/// counter and folded the checkpoint capture into the statistics
/// collection, retiring message tag 12; revision 6 made rollback and
/// spill messages carry segment extents instead of group ids, and the
/// statistics reply the worker's spill read failures).
pub(crate) const WIRE_MAGIC: u64 = 0x414c_4249_435f_5736;

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
/// one side has delivered [`ACK_EVERY`](super::session::ACK_EVERY) frames without reverse traffic
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

/// Append one session-bearing frame to `out`: `[u32 len LE][kind][u64
/// seq][u64 ack][payload]`. `ack` piggybacks the sender's current
/// delivery high-water mark for the peer's stream.
pub(crate) fn put_session_frame(out: &mut Vec<u8>, kind: u8, seq: u64, ack: u64, payload: &[u8]) {
    debug_assert!(payload.len() + 16 < MAX_FRAME_LEN);
    out.reserve(21 + payload.len());
    out.extend_from_slice(&((payload.len() as u32 + 17).to_le_bytes()));
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&ack.to_le_bytes());
    out.extend_from_slice(payload);
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

/// Incremental frame assembler: socket bytes land directly in its
/// spare capacity, complete frames are handed out as borrowed slices.
/// The backing store is zero-filled only when it grows, so reading a
/// frame allocates nothing in the steady state. Fails closed on a zero
/// or oversized length prefix.
#[derive(Default)]
pub(crate) struct FrameBuffer {
    /// `pos..end` holds unparsed bytes; `end..` is spare room for reads.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl FrameBuffer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Total length (prefix included) of the frame at the head, if all of
    /// it is buffered.
    fn ready(&self) -> Result<Option<usize>, DecodeError> {
        let avail = self.end - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(DecodeError::new(
                self.pos,
                "frame length in 1..=64MiB",
                Found::Length(len as u64),
            ));
        }
        Ok((avail >= 4 + len).then_some(4 + len))
    }

    /// Pop the next complete frame as `(kind, body)`, `Ok(None)` if more
    /// bytes are needed.
    pub(crate) fn next_frame(&mut self) -> Result<Option<(u8, &[u8])>, DecodeError> {
        let Some(n) = self.ready()? else {
            return Ok(None);
        };
        let at = self.pos;
        self.pos += n;
        Ok(Some((self.buf[at + 4], &self.buf[at + 5..at + n])))
    }

    /// Block on `src` until one whole frame is buffered and pop it. A
    /// framing violation surfaces as `InvalidData`, a read timeout as the
    /// underlying `WouldBlock`/`TimedOut`, a close as `UnexpectedEof`.
    pub(crate) fn read_frame(&mut self, src: &mut impl Read) -> io::Result<(u8, &[u8])> {
        let invalid = |e: DecodeError| io::Error::new(io::ErrorKind::InvalidData, e);
        while self.ready().map_err(invalid)?.is_none() {
            self.reserve(IO_CHUNK / 4);
            match src.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(self
            .next_frame()
            .map_err(invalid)?
            .expect("a whole frame is buffered"))
    }

    /// Make room for `extra` bytes past `end`: forget a fully consumed
    /// buffer, slide an unparsed tail to the front, and only then grow.
    fn reserve(&mut self, extra: usize) {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        }
        if self.buf.len() - self.end >= extra {
            return;
        }
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.buf.len() - self.end < extra {
            let grown = (self.end + extra).max(2 * self.buf.len()).max(IO_CHUNK);
            self.buf.resize(grown, 0);
        }
    }
}

/// A [`FrameBuffer`]'s initial size; reads go ahead once a quarter of it
/// is free.
const IO_CHUNK: usize = 64 * 1024;

/// Why a session's inbound half stopped, or what one dispatched payload
/// asks of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkEvent {
    /// Keep reading.
    Keep,
    /// The socket died or the stream has a sequence gap: tear the socket
    /// down and resume — the resend heals it.
    Cut,
    /// Garbled or hostile input, or the local end is gone: fail closed.
    Fatal,
}

/// One end's half of a worker-link session — the one session engine
/// both ends run, shared by `Arc` between the daemon's worker thread,
/// reply handles and uplink reader, or a stub's writer and reader.
/// Frames stay parked in the [`SendSequencer`] until acked, so a resumed
/// socket replays exactly the unseen suffix.
///
/// Two locks keep a link deadlock-free while *both* ends block on their
/// sockets: `seq` (the sequencers) is never held across socket I/O, and
/// `sock` (the write side) is held across each blocking write, so frames
/// go out whole and in order. A reader never waits for `sock` — an
/// explicit `ACK` it cannot write is left owed for the socket's holder
/// ([`WireOut::settle_acks`]) — so each end keeps draining what the
/// other writes and a writer blocked on a full socket always completes.
#[derive(Clone)]
pub(crate) struct WireOut {
    inner: Arc<LinkInner>,
}

struct LinkInner {
    seq: StdMutex<SeqHalf>,
    /// Signalled when acks free resend-queue room, on resume and on death.
    room: Condvar,
    sock: StdMutex<SockHalf>,
    /// Set when the session is over (policy exhausted, poisoned, garbled
    /// peer, or closed after `Shutdown`): further sends fail at once and
    /// blocked writers wake.
    dead: AtomicBool,
    compress: bool,
}

struct SeqHalf {
    send: SendSequencer,
    recv: RecvSequencer,
    /// The reader owes the peer an explicit `ACK` it could not write.
    ack_owed: bool,
}

struct SockHalf {
    /// `None` while the socket is down; frames keep parking.
    conn: Option<Conn>,
    /// Reused encode buffer: one `write` per burst.
    wbuf: Vec<u8>,
}

impl SockHalf {
    /// Write `wbuf` out and clear it. A failed write shuts the socket, so
    /// the reader's blocking read returns and starts the resume, and
    /// drops the write half — the frames stay parked for the replay.
    fn write_out(&mut self) -> bool {
        let ok = (self.conn.as_mut()).is_some_and(|conn| conn.write_all(&self.wbuf).is_ok());
        if !ok {
            if let Some(conn) = self.conn.take() {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        self.wbuf.clear();
        ok
    }
}

impl WireOut {
    pub(crate) fn new(conn: Conn, compress: bool) -> Self {
        WireOut {
            inner: Arc::new(LinkInner {
                seq: StdMutex::new(SeqHalf {
                    send: SendSequencer::new(SEND_QUEUE_LIMIT),
                    recv: RecvSequencer::new(),
                    ack_owed: false,
                }),
                room: Condvar::new(),
                sock: StdMutex::new(SockHalf {
                    conn: Some(conn),
                    wbuf: Vec::new(),
                }),
                dead: AtomicBool::new(false),
                compress,
            }),
        }
    }

    fn seq(&self) -> std::sync::MutexGuard<'_, SeqHalf> {
        self.inner.seq.lock().expect("link sequencer lock")
    }

    /// Whether state blobs on this link are LZ4-compressed.
    pub(crate) fn compress(&self) -> bool {
        self.inner.compress
    }

    /// Whether the session is over for good.
    pub(crate) fn is_dead(&self) -> bool {
        self.inner.dead.load(Ordering::Acquire)
    }

    /// Send one session-bearing frame (see [`WireOut::send_burst`]).
    pub(crate) fn send_frame(&self, kind: u8, body: &[u8]) -> io::Result<()> {
        self.send_burst(&mut vec![(kind, body.to_vec())])
    }

    /// Send a burst of session-bearing frames in one `write`: assign
    /// sequence numbers, park every payload for resend, and write them if
    /// the socket is up. Blocks while the resend queue is full
    /// (backpressure during an outage). A write error is *not* an error
    /// here — the frames stay parked and the reader's resume replays
    /// them; only a dead session fails. Drains `frames`.
    pub(crate) fn send_burst(&self, frames: &mut Vec<(u8, Vec<u8>)>) -> io::Result<()> {
        // Wait for room before taking the socket: the acks that make room
        // arrive through the reader, and a resume needs the socket.
        let mut st = self.seq();
        while !st.send.has_room() && !self.is_dead() {
            st = self.inner.room.wait(st).expect("link sequencer lock");
        }
        drop(st);
        if self.is_dead() {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let mut sock = self.inner.sock.lock().expect("link socket lock");
        let mut st = self.seq();
        let ack = st.recv.delivered();
        st.recv.mark_acked();
        for (kind, body) in frames.drain(..) {
            let seq = st.send.highest() + 1;
            put_session_frame(&mut sock.wbuf, kind, seq, ack, &body);
            st.send.push(kind, body);
        }
        drop(st);
        sock.write_out();
        drop(sock);
        self.settle_acks();
        Ok(())
    }

    /// Inbound delivery high-water mark (what a `RESUME`/`RESUMED`
    /// advertises).
    pub(crate) fn delivered(&self) -> u64 {
        self.seq().recv.delivered()
    }

    /// Whether a peer-claimed delivery mark is consistent with this end's
    /// outbound stream (see [`SendSequencer::valid_resume_point`]).
    pub(crate) fn valid_resume_point(&self, delivered: u64) -> bool {
        self.seq().send.valid_resume_point(delivered)
    }

    /// Apply the peer's cumulative ack to the resend queue, then classify
    /// the frame's own sequence number (if it carries one).
    fn on_inbound(&self, ack: u64, seq: Option<u64>) -> Option<SeqVerdict> {
        let mut st = self.seq();
        if st.send.ack(ack) {
            self.inner.room.notify_all();
        }
        seq.map(|seq| st.recv.accept(seq))
    }

    /// Write owed `ACK`s — unless another thread holds the socket, which
    /// then does it: every socket holder calls this right after releasing
    /// it, so an ack owed while the socket was busy is written by whoever
    /// held it.
    fn settle_acks(&self) {
        while self.seq().ack_owed {
            let Ok(mut sock) = self.inner.sock.try_lock() else {
                return;
            };
            let mut st = self.seq();
            // A frame written since the ack fell owed may have carried it.
            if !std::mem::take(&mut st.ack_owed) || !st.recv.ack_due() {
                return;
            }
            let delivered = st.recv.delivered();
            st.recv.mark_acked();
            drop(st);
            sock.wbuf
                .extend_from_slice(&frame_bytes(FRAME_ACK, &delivered.to_le_bytes()));
            sock.write_out();
        }
    }

    /// Install a fresh socket after a successful `RESUME`/`RESUMED`
    /// exchange: prune everything the peer already delivered, park
    /// `top_up` after the suffix, then replay the parked suffix in order.
    /// If the replay fails the socket stays down (shut, so the reader
    /// notices) and the frames stay parked for the next resume.
    pub(crate) fn resume(
        &self,
        conn: Conn,
        peer_delivered: u64,
        top_up: Option<(u8, Vec<u8>)>,
    ) -> io::Result<()> {
        let mut sock = self.inner.sock.lock().expect("link socket lock");
        if self.is_dead() {
            // Closed while the worker re-dialed: the reader must not
            // block on a socket nobody will write to.
            let _ = conn.shutdown(Shutdown::Both);
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let mut st = self.seq();
        st.send.ack(peer_delivered);
        if let Some((kind, body)) = top_up {
            st.send.push(kind, body);
        }
        let ack = st.recv.delivered();
        st.recv.mark_acked();
        for (seq, kind, body) in st.send.pending(peer_delivered) {
            put_session_frame(&mut sock.wbuf, kind, seq, ack, body);
        }
        drop(st);
        sock.conn = Some(conn);
        let replayed = sock.write_out();
        drop(sock);
        self.inner.room.notify_all();
        self.settle_acks();
        if replayed {
            Ok(())
        } else {
            Err(io::ErrorKind::BrokenPipe.into())
        }
    }

    /// End the session: fail all current and future sends so writers wind
    /// down. Returns whether this call ended it.
    pub(crate) fn mark_dead(&self) -> bool {
        let first = !self.inner.dead.swap(true, Ordering::AcqRel);
        // Notify under the lock so a writer between its room check and
        // its wait cannot miss the wake-up.
        let _st = self.seq();
        self.inner.room.notify_all();
        first
    }

    /// End the session from the writing side, after its last frame: no
    /// further sends, and the reader's blocking read returns at once. Only
    /// the read side is shut, so the peer still reads everything written.
    pub(crate) fn close(&self) {
        self.mark_dead();
        if let Some(conn) = &self.inner.sock.lock().expect("link socket lock").conn {
            let _ = conn.shutdown(Shutdown::Read);
        }
    }

    /// The inbound half, identical at both ends of a link: block on the
    /// socket, apply piggybacked and explicit acks to the resend queue,
    /// drop resend duplicates, hand each fresh payload to `dispatch`, and
    /// owe the peer an explicit `ACK` every
    /// [`ACK_EVERY`](super::session::ACK_EVERY) deliveries.
    /// Returns when the socket dies or the stream has a gap
    /// ([`LinkEvent::Cut`]), or when the peer broke framing or `dispatch`
    /// gave up ([`LinkEvent::Fatal`]).
    pub(crate) fn pump(
        &self,
        conn: &mut Conn,
        fb: &mut FrameBuffer,
        mut dispatch: impl FnMut(u8, &[u8]) -> LinkEvent,
    ) -> LinkEvent {
        loop {
            let (kind, body) = match fb.read_frame(conn) {
                Ok(frame) => frame,
                Err(e) if e.kind() == io::ErrorKind::InvalidData => return LinkEvent::Fatal,
                Err(_) => return LinkEvent::Cut,
            };
            let event = match kind {
                FRAME_ACK => match decode_ack(&mut Reader::new(body)) {
                    Ok(upto) => {
                        self.on_inbound(upto, None);
                        LinkEvent::Keep
                    }
                    Err(_) => LinkEvent::Fatal,
                },
                FRAME_MSG | FRAME_FORWARD | FRAME_REPLY | FRAME_ROUTING => {
                    match split_session(body) {
                        Ok((seq, ack, payload)) => match self.on_inbound(ack, Some(seq)) {
                            Some(SeqVerdict::Fresh) => dispatch(kind, payload),
                            Some(SeqVerdict::Gap) => LinkEvent::Cut,
                            _ => LinkEvent::Keep, // a resend duplicate
                        },
                        Err(_) => LinkEvent::Fatal,
                    }
                }
                // Unknown kinds are ignored for forward compatibility.
                _ => LinkEvent::Keep,
            };
            if event != LinkEvent::Keep {
                return event;
            }
            let mut st = self.seq();
            if st.recv.ack_due() {
                st.ack_owed = true;
                drop(st);
                self.settle_acks();
            }
        }
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

impl ReplyPayload for Activity {
    fn encode_payload(&self, w: &mut Writer, _compress: bool) {
        w.put_u64(self.0.raw() as u64);
        w.put_u64(self.1);
    }
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((NodeId::new(r.get_u64()? as u32), r.get_u64()?))
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

impl ReplyPayload for (KeyGroupId, InstallReply) {
    fn encode_payload(&self, w: &mut Writer, _compress: bool) {
        w.put_u64(self.0.raw() as u64);
        match &self.1 {
            InstallReply::Installed {
                state_bytes,
                wire_bytes,
            } => {
                w.put_u64(0);
                w.put_u64(*state_bytes as u64);
                w.put_u64(*wire_bytes as u64);
            }
            InstallReply::DestinationGone => w.put_u64(1),
        }
    }
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let kg = KeyGroupId::new(r.get_u64()? as u32);
        let reply = match r.get_u64()? {
            0 => InstallReply::Installed {
                state_bytes: r.get_u64()? as usize,
                wire_bytes: r.get_u64()? as usize,
            },
            1 => InstallReply::DestinationGone,
            tag => {
                return Err(DecodeError::new(
                    r.offset(),
                    "install-reply tag 0..=1",
                    Found::Length(tag),
                ))
            }
        };
        Ok((kg, reply))
    }
}

impl ReplyPayload for StatsReply {
    fn encode_payload(&self, w: &mut Writer, compress: bool) {
        w.put_u64(self.0.raw() as u64);
        encode_stats(&self.1, w);
        match self.2 {
            None => w.put_u64(0),
            Some(q) => {
                w.put_u64(1);
                w.put_u64(q.depth as u64);
                w.put_u64(q.peak as u64);
                w.put_u64(q.overflow);
            }
        }
        match &self.3 {
            None => w.put_u64(0),
            Some(states) => {
                w.put_u64(1);
                encode_states(states, w, compress);
            }
        }
        w.put_u64(self.4);
    }
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let node = NodeId::new(r.get_u64()? as u32);
        let stats = decode_stats(r)?;
        let queue = match get_option_tag(r)? {
            false => None,
            true => Some(QueueSample {
                depth: r.get_u64()? as usize,
                peak: r.get_u64()? as usize,
                overflow: r.get_u64()?,
            }),
        };
        let states = match get_option_tag(r)? {
            false => None,
            true => Some(decode_states(r)?),
        };
        Ok((node, stats, queue, states, r.get_u64()?))
    }
}

/// An `Option` presence tag: 0 or 1, anything else fails closed.
fn get_option_tag(r: &mut Reader<'_>) -> Result<bool, DecodeError> {
    match r.get_u64()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(DecodeError::new(
            r.offset(),
            "option tag 0..=1",
            Found::Length(tag),
        )),
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
        Ok(match get_option_tag(r)? {
            false => None,
            true => Some(get_byte_vec(r)?),
        })
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
    Activity(Sender<Activity>),
    Install(Sender<(KeyGroupId, InstallReply)>),
    EpochDone(Sender<NodeId>),
    Stats(Sender<StatsReply>),
    Probe(Sender<Option<Vec<u8>>>),
}

impl Pending {
    /// Decode the reply payload for this registration's type and deliver
    /// it. A closed receiver is normal (no-op barrier waves drop theirs
    /// immediately), so channel send errors are ignored.
    fn fire(&self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        fn deliver<T: ReplyPayload>(tx: &Sender<T>, r: &mut Reader<'_>) -> Result<(), DecodeError> {
            let _ = tx.send(T::decode_payload(r)?);
            Ok(())
        }
        match self {
            Pending::Ack(tx) => deliver(tx, r),
            Pending::Activity(tx) => deliver(tx, r),
            Pending::Install(tx) => deliver(tx, r),
            Pending::EpochDone(tx) => deliver(tx, r),
            Pending::Stats(tx) => deliver(tx, r),
            Pending::Probe(tx) => deliver(tx, r),
        }
    }
}

/// Controller-side registry mapping wire ids to parked reply channels.
/// Shared by every per-worker stub thread — essential for migration,
/// where the `install_done` handle registered while encoding an
/// `EpochBarrier` to worker A is resolved by a `REPLY` frame arriving
/// from worker B (A's `Install` went to B, which answers it).
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

/// Spill extents as `[count]` then `[group][offset][length]` each.
fn put_extents(w: &mut Writer, extents: &[SpillExtent]) {
    w.put_u64(extents.len() as u64);
    for ext in extents {
        w.put_u64(ext.group as u64);
        w.put_u64(ext.off);
        w.put_u64(ext.len as u64);
    }
}

fn get_extents(r: &mut Reader<'_>) -> Result<Vec<SpillExtent>, DecodeError> {
    let n = r.get_u64()?;
    let mut extents = Vec::new();
    for _ in 0..n {
        let group = r.get_u64()? as u32;
        let off = r.get_u64()?;
        let at = r.offset();
        let len = r.get_u64()?;
        let len = u32::try_from(len)
            .map_err(|_| DecodeError::new(at, "extent length below 4 GiB", Found::Length(len)))?;
        extents.push(SpillExtent { group, off, len });
    }
    Ok(extents)
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
            w.put_u64(reply_id(done, reg, Pending::Install));
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
            w.put_u64(reply_id(install_done, reg, Pending::Install));
            w.put_u64(reply_id(done, reg, Pending::EpochDone));
        }
        Msg::PeerBarrier { epoch, from } => {
            w.put_u64(7);
            w.put_u64(*epoch);
            w.put_u64(from.raw() as u64);
        }
        Msg::Barrier(ack) => {
            w.put_u64(8);
            w.put_u64(reply_id(ack, reg, Pending::Activity));
        }
        Msg::FlushWindows { ack } => {
            w.put_u64(9);
            w.put_u64(reply_id(ack, reg, Pending::Activity));
        }
        Msg::CollectStats { capture, reply } => {
            w.put_u64(10);
            w.put_u64(match capture {
                None => 0,
                Some(CheckpointMode::Full) => 1,
                Some(CheckpointMode::Incremental) => 2,
            });
            w.put_u64(reply_id(reply, reg, Pending::Stats));
        }
        Msg::ProbeState { kg, reply } => {
            w.put_u64(11);
            w.put_u64(kg.raw() as u64);
            w.put_u64(reply_id(reply, reg, Pending::Probe));
        }
        Msg::Rollback {
            states,
            spilled,
            segment,
            ack,
        } => {
            w.put_u64(13);
            encode_states(states, w, compress);
            put_extents(w, spilled);
            match segment {
                Some(path) => {
                    w.put_u64(1);
                    w.put_str(path);
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
        Msg::SpillGroups { segment, extents } => {
            w.put_u64(17);
            w.put_str(segment);
            put_extents(w, extents);
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
            capture: match r.get_u64()? {
                0 => None,
                1 => Some(CheckpointMode::Full),
                2 => Some(CheckpointMode::Incremental),
                tag => {
                    return Err(DecodeError::new(
                        r.offset(),
                        "capture tag 0..=2",
                        Found::Length(tag),
                    ))
                }
            },
            reply: wire_reply(r, out)?,
        },
        11 => Msg::ProbeState {
            kg: KeyGroupId::new(r.get_u64()? as u32),
            reply: wire_reply(r, out)?,
        },
        13 => {
            let states = decode_states(r)?;
            let spilled = get_extents(r)?;
            let segment = match get_option_tag(r)? {
                false => None,
                true => Some(r.get_str()?),
            };
            Msg::Rollback {
                states,
                spilled,
                segment,
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
        17 => Msg::SpillGroups {
            segment: r.get_str()?,
            extents: get_extents(r)?,
        },
        tag => {
            return Err(DecodeError::new(
                at,
                "message tag 1..=3, 5..=11 or 13..=17",
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
    use std::time::Duration;

    /// Message tag 0 once carried row batches, tag 4 a per-move
    /// `Extract` and tag 12 a separate checkpoint snapshot request; none
    /// of these frames exists any more. A `MSG` or `FORWARD` body bearing
    /// one — here shaped like a well-formed message of the old layout —
    /// must fail at the tag with a typed error instead of being parsed.
    #[test]
    fn message_tag_zero_is_rejected_with_a_typed_decode_error() {
        let mut row_batch = Writer::new();
        row_batch.put_u64(0); // tag
        row_batch.put_u64(1); // rows
        row_batch.put_u64(0); // operator
        row_batch.put_u64(0); // key group
        row_batch.put_u64(7); // key
        row_batch.put_value(&Value::Int(1));
        row_batch.put_u64(0); // timestamp
        let mut extract = Writer::new();
        extract.put_u64(4); // tag
        extract.put_u64(3); // key group
        extract.put_u64(1); // destination node
        extract.put_u64(9); // reply id
        let mut snapshot = Writer::new();
        snapshot.put_u64(12); // tag
        snapshot.put_u64(1); // delta only
        snapshot.put_u64(9); // reply id
        for (tag, body) in [
            (0, row_batch.into_bytes()),
            (4, extract.into_bytes()),
            (12, snapshot.into_bytes()),
        ] {
            let mut forward = Writer::new();
            forward.put_u64(2); // destination node
            forward.put_bytes(&body);
            let forward = forward.into_bytes();

            for (kind, payload) in [(FRAME_MSG, &body), (FRAME_FORWARD, &forward)] {
                let mut bytes = Vec::new();
                put_session_frame(&mut bytes, kind, 1, 0, payload);
                let mut frames = FrameBuffer::new();
                frames.extend(&bytes);
                let (got_kind, frame) = frames.next_frame().unwrap().expect("one whole frame");
                assert_eq!(got_kind, kind);
                let (_, _, payload) = split_session(frame).unwrap();
                let mut r = Reader::new(payload);
                if kind == FRAME_FORWARD {
                    assert_eq!(r.get_u64().unwrap(), 2);
                }
                let at = r.offset();
                let Err(err) = decode_msg(&mut r, None) else {
                    panic!("frame kind {kind}: tag {tag} decoded as a message");
                };
                assert_eq!(err.offset, at, "frame kind {kind}, tag {tag}");
                assert_eq!(err.expected, "message tag 1..=3, 5..=11 or 13..=17");
                assert!(matches!(err.found, Found::Length(t) if t == tag), "{err}");
            }
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

    /// The statistics reply round-trips its collector, the worker's spill
    /// read failures and, when present, the daemon's inbox gauge; an
    /// absent gauge stays absent.
    #[test]
    fn stats_reply_round_trips_the_daemon_gauge() {
        let mut stats = StatsCollector::new();
        stats.ingested = 12.0;
        stats.emitted = 5.0;
        stats.dropped = 1.0;
        stats.tuples_in.insert(3, 7.0);
        stats.out_matrix.insert((3, 9), 4.0);
        let gauge = QueueSample {
            depth: 4,
            peak: 1500,
            overflow: 2,
        };
        for queue in [Some(gauge), None] {
            let reply: StatsReply = (NodeId::new(2), stats.clone(), queue, None, 3);
            let mut w = Writer::new();
            reply.encode_payload(&mut w, false);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let (node, back, back_queue, states, failures) =
                StatsReply::decode_payload(&mut r).expect("decode");
            assert_eq!((states, failures), (None, 3));
            assert!(r.is_done(), "{} trailing bytes", r.remaining());
            assert_eq!(node, NodeId::new(2));
            assert_eq!(back_queue, queue);
            assert_eq!(
                (back.ingested, back.emitted, back.dropped),
                (12.0, 5.0, 1.0)
            );
            assert_eq!(back.tuples_in, stats.tuples_in);
            assert_eq!(back.out_matrix, stats.out_matrix);
        }
    }

    /// A statistics reply carries the checkpoint states the collection
    /// asked for — compressed or not, an empty capture included — and a
    /// collection that asked for none carries none.
    #[test]
    fn stats_reply_round_trips_with_and_without_snapshot_states() {
        let big = (0..200u8).map(|i| i % 4).collect::<Vec<u8>>();
        for states in [None, Some(vec![]), Some(vec![(3, vec![1, 2]), (9, big)])] {
            for compress in [false, true] {
                let reply: StatsReply = (
                    NodeId::new(1),
                    StatsCollector::new(),
                    None,
                    states.clone(),
                    0,
                );
                let mut w = Writer::new();
                reply.encode_payload(&mut w, compress);
                let bytes = w.into_bytes();
                let mut r = Reader::new(&bytes);
                let back = StatsReply::decode_payload(&mut r).expect("decode");
                assert!(r.is_done(), "{} trailing bytes", r.remaining());
                assert_eq!((back.0, back.3), (NodeId::new(1), states.clone()));
            }
        }
        // A presence tag other than 0 or 1 fails closed (the states tag
        // is the word before the trailing failure count).
        let mut w = Writer::new();
        (NodeId::new(1), StatsCollector::new(), None, None, 0).encode_payload(&mut w, false);
        let mut bytes = w.into_bytes();
        let tag = bytes.len() - 16;
        bytes[tag] = 7;
        let err = StatsReply::decode_payload(&mut Reader::new(&bytes)).unwrap_err();
        assert_eq!(err.expected, "option tag 0..=1");
    }

    /// Encode `msg` as the controller does (parking its reply channel in
    /// `correlator`) and decode it as the daemon does.
    fn over_the_wire(msg: &Msg, correlator: &Correlator) -> Msg {
        let mut w = Writer::new();
        encode_msg(msg, &mut w, false, &mut |p| correlator.register(p));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_msg(&mut r, None).expect("decode");
        assert!(r.is_done(), "{} trailing bytes", r.remaining());
        back
    }

    /// The reply id a decoded message carries.
    fn wire_id<T>(reply: &ReplyTo<T>) -> u64 {
        match reply {
            ReplyTo::Wire { id, .. } => *id,
            ReplyTo::Chan(_) => panic!("a decoded reply handle is a wire id"),
        }
    }

    /// `Barrier` and `FlushWindows` acks carry `(node, activity)`: the
    /// controller parks an activity channel for them, and the daemon's
    /// `REPLY` payload resolves it with both fields intact.
    #[test]
    fn barrier_and_flush_acks_round_trip_the_activity_counter() {
        let correlator = Correlator::new();
        let (tx, rx) = crossbeam::channel::unbounded();
        let msgs = [
            Msg::Barrier(ReplyTo::Chan(tx.clone())),
            Msg::FlushWindows {
                ack: ReplyTo::Chan(tx),
            },
        ];
        for (i, msg) in msgs.iter().enumerate() {
            let id = match over_the_wire(msg, &correlator) {
                Msg::Barrier(ack) | Msg::FlushWindows { ack } => wire_id(&ack),
                _ => panic!("message {i} changed kind on the wire"),
            };
            let ack: Activity = (NodeId::new(3), u64::MAX - i as u64);
            let mut w = Writer::new();
            ack.encode_payload(&mut w, false);
            let bytes = w.into_bytes();
            correlator.fire(id, &mut Reader::new(&bytes)).expect("fire");
            assert_eq!(rx.try_recv(), Ok(ack));
        }
    }

    /// The checkpoint request rides on `CollectStats`: none, a full or an
    /// incremental capture, each surviving the trip; an unknown capture
    /// tag fails closed.
    #[test]
    fn collect_stats_carries_the_capture_request() {
        let correlator = Correlator::new();
        let (tx, _rx) = crossbeam::channel::unbounded();
        for capture in [
            None,
            Some(CheckpointMode::Full),
            Some(CheckpointMode::Incremental),
        ] {
            let reply = ReplyTo::Chan(tx.clone());
            match over_the_wire(&Msg::CollectStats { capture, reply }, &correlator) {
                Msg::CollectStats { capture: back, .. } => assert_eq!(back, capture),
                _ => panic!("not a statistics collection"),
            }
        }
        let mut w = Writer::new();
        for word in [10, 3, 1] {
            w.put_u64(word);
        }
        let Err(err) = decode_msg(&mut Reader::new(&w.into_bytes()), None) else {
            panic!("capture tag 3 decoded");
        };
        assert_eq!(err.expected, "capture tag 0..=2");
    }

    /// Spill extents survive a message round trip exactly (large
    /// offsets included).
    fn extents() -> Vec<SpillExtent> {
        vec![
            SpillExtent {
                group: 3,
                off: 0,
                len: 4096,
            },
            SpillExtent {
                group: 17,
                off: (5 << 32) + 4112,
                len: u32::MAX,
            },
        ]
    }

    /// Tag 13: a rollback carries the hot states, the extents of the
    /// spilled groups and the segment they point into — or neither.
    #[test]
    fn rollback_round_trips_spill_extents_and_segment() {
        let correlator = Correlator::new();
        let (tx, _rx) = crossbeam::channel::unbounded();
        for (spilled, segment) in [
            (extents(), Some("/tmp/spill/spill-3.seg".to_string())),
            (vec![], None),
        ] {
            let msg = Msg::Rollback {
                states: vec![(1, vec![9; 40])],
                spilled: spilled.clone(),
                segment: segment.clone(),
                ack: ReplyTo::Chan(tx.clone()),
            };
            match over_the_wire(&msg, &correlator) {
                Msg::Rollback {
                    states,
                    spilled: back,
                    segment: back_segment,
                    ..
                } => {
                    assert_eq!(states, vec![(1, vec![9; 40])]);
                    assert_eq!((back, back_segment), (spilled, segment));
                }
                _ => panic!("not a rollback"),
            }
        }
    }

    /// Tag 17: a spill message carries the segment path and the extents;
    /// an extent length beyond a record header's `u32` fails closed.
    #[test]
    fn spill_groups_round_trip_extents_and_reject_oversized_lengths() {
        let msg = Msg::SpillGroups {
            segment: "/tmp/spill/spill-0.seg".into(),
            extents: extents(),
        };
        match over_the_wire(&msg, &Correlator::new()) {
            Msg::SpillGroups {
                segment,
                extents: back,
            } => {
                assert_eq!(segment, "/tmp/spill/spill-0.seg");
                assert_eq!(back, extents());
            }
            _ => panic!("not a spill message"),
        }
        let mut w = Writer::new();
        w.put_u64(17);
        w.put_str("s");
        w.put_u64(1);
        for word in [3, 0, 1 << 32] {
            w.put_u64(word);
        }
        let Err(err) = decode_msg(&mut Reader::new(&w.into_bytes()), None) else {
            panic!("a 4 GiB extent decoded");
        };
        assert_eq!(err.expected, "extent length below 4 GiB");
    }

    /// Workers of earlier protocol revisions (`ALBIC_W4`, `ALBIC_W5`) are
    /// turned away at `HELLO` and at `RESUME`: their barrier acks,
    /// statistics replies and spill messages have a different layout.
    #[test]
    fn an_earlier_revision_handshake_is_rejected() {
        assert_eq!(WIRE_MAGIC, u64::from_be_bytes(*b"ALBIC_W6"));
        for old in [*b"ALBIC_W4", *b"ALBIC_W5"] {
            let old = u64::from_be_bytes(old);
            let mut hello = encode_hello(NodeId::new(1), "token");
            hello[..8].copy_from_slice(&old.to_le_bytes());
            let err = decode_hello(&mut Reader::new(&hello)).unwrap_err();
            assert_eq!(err.expected, "wire magic");
            assert!(matches!(err.found, Found::Length(m) if m == old), "{err}");
            let mut resume = encode_resume(&ResumeMsg {
                node: NodeId::new(1),
                token: "token".into(),
                delivered: 0,
                routing_version: 0,
            });
            resume[..8].copy_from_slice(&old.to_le_bytes());
            assert!(decode_resume(&mut Reader::new(&resume)).is_err());
        }
        let current = encode_hello(NodeId::new(1), "token");
        assert_eq!(
            decode_hello(&mut Reader::new(&current)).unwrap(),
            (NodeId::new(1), "token".to_string())
        );
    }
}
