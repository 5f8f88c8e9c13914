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
//!
//! Each layout is declared once. A field type implements [`Wire`]: its
//! `put` and `get` sit side by side. Messages, replies and frame bodies
//! are built from those impls. [`Msg`]'s encoder, decoder, unknown-tag
//! error and [`MSG_TAGS`] come from the message table (`messages!`), and
//! every reply payload type is one entry of the reply table (`replies!`).
//! To add a message, add the variant to [`Msg`] and one table line
//! `tag => Variant { fields in wire order }`; `docs/TRANSPORT.md`'s tag
//! table is checked against it. Whenever the bytes a peer must understand
//! change (a new tag, a new field, another layout), also bump
//! [`WIRE_MAGIC`] and replace `testdata/wire_w7.golden`, which pins every
//! layout byte for byte, with a corpus for the new revision.

use std::collections::HashMap;
use std::hash::Hash;
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;

use albic_types::{KeyGroupId, NodeId, OperatorId};

use super::lz4;
use super::net::Conn;
use super::session::{ReconnectPolicy, RecvSequencer, SendSequencer, SeqVerdict, SEND_QUEUE_LIMIT};
use crate::checkpoint::{CheckpointMode, SpillExtent};
use crate::chunk::StreamChunk;
use crate::codec::{DecodeError, Found, Reader, Writer};
use crate::runtime::inbox::Credit;
use crate::runtime::{Activity, InstallReply, Msg, ReplyTo, RuntimeConfig, StateBlob, StatsReply};
use crate::stats::{FastMap, StatsCollector};

/// Handshake magic ("ALBIC_W7"): rejects a stray client that is not an
/// albic worker speaking this protocol revision (revision 2 added
/// sessions, join tokens, and compressed state blobs; revision 3 dropped
/// the row-batch message and the `INIT` data-plane field; revision 4
/// added the daemon's inbox gauge to the statistics reply; revision 5
/// made barrier and window-flush acks carry the worker's activity
/// counter and folded the checkpoint capture into the statistics
/// collection, retiring message tag 12; revision 6 made rollback and
/// spill messages carry segment extents instead of group ids, and the
/// statistics reply the worker's spill read failures; revision 7 took
/// the daemon's inbox gauge back out of the statistics reply).
pub(crate) const WIRE_MAGIC: u64 = 0x414c_4249_435f_5737;

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
/// one side has consumed [`ACK_EVERY`](super::session::ACK_EVERY) frames
/// since the last ack it sent.
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
    /// A daemon's inbox credit: delivered chunks the ack leaves out.
    held: Option<Arc<Credit>>,
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
    pub(crate) fn new(conn: Conn, compress: bool, held: Option<Arc<Credit>>) -> Self {
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
                held,
            }),
        }
    }

    fn seq(&self) -> std::sync::MutexGuard<'_, SeqHalf> {
        self.inner.seq.lock().expect("link sequencer lock")
    }

    fn held(&self) -> u64 {
        self.inner.held.as_ref().map_or(0, |g| g.depth() as u64)
    }

    /// A chunk buffer the daemon's worker handed back to its inbox, for
    /// the next inbound chunk to decode into.
    fn spare_chunk(&self) -> Option<StreamChunk> {
        self.inner.held.as_ref()?.take_spare()
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
        let ack = st.recv.take_ack(self.held());
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
            if !std::mem::take(&mut st.ack_owed) || !st.recv.ack_due(self.held()) {
                return;
            }
            let ack = st.recv.take_ack(self.held());
            drop(st);
            sock.wbuf
                .extend_from_slice(&frame_bytes(FRAME_ACK, &ack.to_le_bytes()));
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
        let ack = st.recv.take_ack(self.held());
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

    /// Send an explicit `ACK` if one is due: after each delivery, and on a
    /// daemon after each dequeue, so a draining inbox reopens the window.
    pub(crate) fn ack_if_due(&self) {
        let mut st = self.seq();
        if st.recv.ack_due(self.held()) {
            st.ack_owed = true;
            drop(st);
            self.settle_acks();
        }
    }

    /// The inbound half, identical at both ends of a link: block on the
    /// socket, apply piggybacked and explicit acks to the resend queue,
    /// drop resend duplicates, hand each fresh payload to `dispatch`, and
    /// ack what is due ([`WireOut::ack_if_due`]).
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
                FRAME_ACK => match decode::<u64>(body, None) {
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
            self.ack_if_due();
        }
    }

    /// Relay `msg` to peer `dest` through the controller hub. Only called
    /// on the daemon side, where every [`ReplyTo`] inside `msg` is
    /// already a wire id.
    pub(crate) fn forward(&self, dest: NodeId, msg: &Msg) -> io::Result<()> {
        let mut e = Enc::new(self.inner.compress, None);
        dest.put(&mut e);
        msg.put(&mut e);
        self.send_frame(FRAME_FORWARD, &e.w.into_bytes())
    }
}

// ---- Field codecs ------------------------------------------------------

/// A value with one wire layout, written once for both directions.
/// Messages, replies and frame bodies are built from their fields' impls
/// (see the message and reply tables below), so an encoder and its
/// decoder cannot disagree about a field.
pub(crate) trait Wire: Sized {
    fn put(&self, e: &mut Enc<'_>);
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError>;
}

/// The encoding side: the output, whether state blobs are LZ4-compressed,
/// and (controller side only) the [`Correlator`] that parks in-process
/// reply channels.
pub(crate) struct Enc<'a> {
    w: Writer,
    compress: bool,
    correlator: Option<&'a Correlator>,
}

impl<'a> Enc<'a> {
    fn new(compress: bool, correlator: Option<&'a Correlator>) -> Self {
        Enc {
            w: Writer::new(),
            compress,
            correlator,
        }
    }
}

/// The decoding side: the input, and (daemon side only) the uplink that
/// every decoded reply handle answers on. Without it (controller relay)
/// reply handles are inert passthroughs that only survive re-encoding.
pub(crate) struct Dec<'a> {
    r: Reader<'a>,
    out: Option<&'a WireOut>,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8], out: Option<&'a WireOut>) -> Self {
        Dec {
            r: Reader::new(bytes),
            out,
        }
    }

    fn get<T: Wire>(&mut self) -> Result<T, DecodeError> {
        T::get(self)
    }

    /// A `T` that ends the body: a byte after it fails closed.
    fn last<T: Wire>(&mut self) -> Result<T, DecodeError> {
        let (v, at) = (T::get(self)?, self.r.offset());
        match self.r.remaining() {
            0 => Ok(v),
            n => Err(DecodeError::new(at, "end of body", Found::Length(n as u64))),
        }
    }

    /// A `u64` word that must be at most `max`; anything larger fails
    /// closed with `expected`.
    fn word(&mut self, max: u64, expected: &'static str) -> Result<u64, DecodeError> {
        let at = self.r.offset();
        let v = self.r.get_u64()?;
        if v > max {
            return Err(DecodeError::new(at, expected, Found::Length(v)));
        }
        Ok(v)
    }
}

/// Encode `v`. `compress` applies LZ4 to its state blobs; `correlator`
/// parks its in-process reply channels and puts their wire ids in their
/// place. Without one, every reply handle in `v` must already be a wire
/// id (daemon side) — an id passes through unchanged, which is how the
/// controller relays a worker-to-worker `Install`.
pub(crate) fn encode_with<T: Wire>(
    v: &T,
    compress: bool,
    correlator: Option<&Correlator>,
) -> Vec<u8> {
    let mut e = Enc::new(compress, correlator);
    v.put(&mut e);
    e.w.into_bytes()
}

/// Encode a value that carries no state blobs and no reply channels.
pub(crate) fn encode<T: Wire>(v: &T) -> Vec<u8> {
    encode_with(v, false, None)
}

/// Decode a `T` from all of `bytes`; `out` as in [`Dec`].
pub(crate) fn decode<T: Wire>(bytes: &[u8], out: Option<&WireOut>) -> Result<T, DecodeError> {
    Dec::new(bytes, out).last()
}

/// `Wire` impls written as one `put` and one `get` expression each.
macro_rules! wire_layouts {
    ($($(#[$doc:meta])* $ty:ty => |$v:ident, $e:ident| $put:expr, |$d:ident| $get:expr;)*) => {$(
        $(#[$doc])*
        impl Wire for $ty {
            fn put(&self, $e: &mut Enc<'_>) {
                let $v = self;
                $put;
            }
            fn get($d: &mut Dec<'_>) -> Result<Self, DecodeError> {
                $get
            }
        }
    )*};
}

wire_layouts! {
    () => |_v, _e| {}, |_d| Ok(());
    u64 => |v, e| e.w.put_u64(*v), |d| d.r.get_u64();
    usize => |v, e| e.w.put_u64(*v as u64), |d| Ok(d.r.get_u64()? as usize);
    /// Ids and group numbers travel as `u64` words; a word beyond `u32`
    /// fails closed instead of being truncated onto another id.
    u32 => |v, e| e.w.put_u64(*v as u64),
        |d| Ok(d.word(u32::MAX as u64, "a value below 2^32")? as u32);
    NodeId => |v, e| v.raw().put(e), |d| Ok(NodeId::new(d.get()?));
    KeyGroupId => |v, e| v.raw().put(e), |d| Ok(KeyGroupId::new(d.get()?));
    OperatorId => |v, e| v.raw().put(e), |d| Ok(OperatorId::new(d.get()?));
    bool => |v, e| e.w.put_u64(*v as u64), |d| Ok(d.word(1, "bool 0..=1")? == 1);
    f64 => |v, e| e.w.put_f64(*v), |d| d.r.get_f64();
    String => |v, e| e.w.put_str(v), |d| d.r.get_str();
    Duration => |v, e| (v.as_nanos() as u64).put(e), |d| Ok(Duration::from_nanos(d.get()?));
    /// On a daemon, decoded into a buffer its worker handed back.
    StreamChunk => |v, e| v.encode(&mut e.w),
        |d| {
            let mut chunk = d.out.and_then(WireOut::spare_chunk).unwrap_or_default();
            chunk.decode_into(&mut d.r)?;
            Ok(chunk)
        };
    /// A peer speaking another protocol revision fails here, before any
    /// other field.
    Magic => |_v, e| WIRE_MAGIC.put(e),
        |d| match (d.r.offset(), d.r.get_u64()?) {
            (_, WIRE_MAGIC) => Ok(Magic),
            (at, magic) => Err(DecodeError::new(at, "wire magic", Found::Length(magic))),
        };
    /// A plain length-prefixed byte blob (state blobs are [`StateBlob`]).
    Vec<u8> => |v, e| {
            v.len().put(e);
            e.w.put_bytes(v)
        },
        |d| {
            let n = d.get()?;
            Ok(d.r.get_bytes(n)?.to_vec())
        };
    /// `[group][offset][length]`; a length of 4 GiB or more cannot be a
    /// record's and fails closed.
    SpillExtent => |v, e| (v.group, v.off, v.len).put(e),
        |d| Ok(SpillExtent {
            group: d.get()?,
            off: d.get()?,
            len: d.word(u32::MAX as u64, "extent length below 4 GiB")? as u32,
        });
    /// A collection's capture request, as its index in [`CAPTURES`].
    Option<CheckpointMode> => |v, e| {
            let tag = CAPTURES.iter().position(|c| c == v);
            tag.expect("every capture request has a tag").put(e)
        },
        |d| Ok(CAPTURES[d.word(2, "capture tag 0..=2")? as usize]);
    /// `[u64 0][state bytes][wire bytes]`, or `[u64 1]` for a gone
    /// destination.
    InstallReply => |v, e| match *v {
            InstallReply::Installed { state_bytes, wire_bytes } => (0u64, state_bytes, wire_bytes).put(e),
            InstallReply::DestinationGone => 1u64.put(e),
        },
        |d| Ok(match d.word(1, "install-reply tag 0..=1")? {
            0 => InstallReply::Installed { state_bytes: d.get()?, wire_bytes: d.get()? },
            _ => InstallReply::DestinationGone,
        });
    /// The attempt count saturates and the jitter is clamped to `0..=1`.
    ReconnectPolicy => |v, e| (v.attempts, v.base_backoff, v.max_backoff, v.jitter).put(e),
        |d| Ok(ReconnectPolicy {
            attempts: d.get::<u64>()?.min(u32::MAX as u64) as u32,
            base_backoff: d.get()?,
            max_backoff: d.get()?,
            jitter: d.get::<f64>()?.clamp(0.0, 1.0),
        });
}

/// The capture requests of [`Msg::CollectStats`], by wire tag.
const CAPTURES: [Option<CheckpointMode>; 3] = [
    None,
    Some(CheckpointMode::Full),
    Some(CheckpointMode::Incremental),
];

/// `[u64 n]` then `n` items. Decoding grows the vector item by item, so
/// a hostile count runs out of input before it can reserve memory.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, e: &mut Enc<'_>) {
        self.len().put(e);
        for item in self {
            item.put(e);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let n: u64 = d.get()?;
        let mut items = Vec::new();
        for _ in 0..n {
            items.push(d.get()?);
        }
        Ok(items)
    }
}

/// `[u64 0]`, or `[u64 1]` and the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, e: &mut Enc<'_>) {
        match self {
            None => 0u64.put(e),
            Some(v) => {
                1u64.put(e);
                v.put(e);
            }
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        match d.word(1, "option tag 0..=1")? {
            0 => Ok(None),
            _ => Ok(Some(d.get()?)),
        }
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn put(&self, e: &mut Enc<'_>) {
        (**self).put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Arc::new(d.get()?))
    }
}

macro_rules! wire_tuples {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, e: &mut Enc<'_>) {
                $(self.$i.put(e);)+
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
                Ok(($(d.get::<$t>()?,)+))
            }
        }
    )*};
}

wire_tuples! { (A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3) (A 0, B 1, C 2, D 3, E 4) }

/// A struct's fields in the listed order, after an optional leading
/// marker value.
macro_rules! wire_structs {
    ($($ty:ident $(after $lead:ident)? { $($f:ident),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, e: &mut Enc<'_>) {
                $($lead.put(e);)?
                $(self.$f.put(e);)*
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
                $($lead::get(d)?;)?
                Ok($ty { $($f: d.get()?),* })
            }
        }
    )*};
}

wire_structs! {
    Hello after Magic { node, token }
    ResumeMsg after Magic { node, token, delivered, routing_version }
    InitOp { name, logic, key_groups, is_source }
    InitMsg { cfg, ops, edges, routing_version, assignment, compression, reconnect }
    RuntimeConfig { batch_size, channel_capacity, flush_interval, barrier_interval }
    StatsCollector {
        tuples_in, cross_in, cross_out, state_bytes, group_cost, out_matrix, ingested, emitted,
        dropped
    }
}

/// `[u64 0]`, or `[u64 1]` with compression on and the blob at least 64
/// bytes and shrinking: `[u64 raw_len]`, then the LZ4 block as a plain
/// blob. Self-describing, so decode never consults config; the claimed
/// raw length is bounded by [`MAX_FRAME_LEN`] before any allocation, and
/// decompression is strictly checked.
impl Wire for StateBlob {
    fn put(&self, e: &mut Enc<'_>) {
        if e.compress && self.bytes.len() >= 64 {
            let packed = lz4::compress(&self.bytes);
            if packed.len() < self.bytes.len() {
                (1u64, self.bytes.len(), packed).put(e);
                return;
            }
        }
        0u64.put(e);
        self.bytes.put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        if d.word(1, "state-blob codec tag 0..=1")? == 0 {
            return Ok(StateBlob::new(d.get()?));
        }
        let raw_len = d.word(MAX_FRAME_LEN as u64, "raw length within 64MiB")? as usize;
        let packed: Vec<u8> = d.get()?;
        Ok(StateBlob {
            bytes: lz4::decompress(&packed, raw_len)?,
            wire_len: packed.len(),
        })
    }
}

/// `[u64 n]` then `n` `(key, value)` pairs in key order, so a loopback
/// run's collected bytes are bit-stable.
impl<K: Wire + Copy + Ord + Hash> Wire for FastMap<K, f64> {
    fn put(&self, e: &mut Enc<'_>) {
        let mut entries: Vec<(K, f64)> = self.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries.put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let n: u64 = d.get()?;
        let mut map = FastMap::default();
        for _ in 0..n {
            let (k, v) = d.get()?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

// ---- The message table -------------------------------------------------

/// Generates [`Msg`]'s [`Wire`] impl and [`MSG_TAGS`] from one line per
/// message: `tag => Variant { fields in wire order }` (or `(fields)`, or
/// nothing). A variant's fields must all be listed.
macro_rules! messages {
    (@pat $name:ident) => { Msg::$name };
    (@pat $name:ident { $($f:ident),* }) => { Msg::$name { $($f),* } };
    (@pat $name:ident ( $($f:ident),* )) => { Msg::$name($($f),*) };
    (@put $e:ident) => {};
    (@put $e:ident { $($f:ident),* }) => { $($f.put($e);)* };
    (@put $e:ident ( $($f:ident),* )) => { $($f.put($e);)* };
    (@get $d:ident $name:ident) => { Msg::$name };
    (@get $d:ident $name:ident { $($f:ident),* }) => { Msg::$name { $($f: $d.get()?),* } };
    (@get $d:ident $name:ident ( $($f:ident),* )) => {
        Msg::$name($({ let _ = stringify!($f); $d.get()? }),*)
    };
    ($($tag:literal => $name:ident $({ $($f:ident),* })? $(( $($t:ident),* ))?,)*) => {
        /// Every message tag and its [`Msg`] variant, in tag order.
        const MSG_TAGS: &[(u64, &str)] = &[$(($tag, stringify!($name))),*];

        impl Wire for Msg {
            fn put(&self, e: &mut Enc<'_>) {
                match self {
                    $(messages!(@pat $name $({ $($f),* })? $(( $($t),* ))?) => {
                        e.w.put_u64($tag);
                        messages!(@put e $({ $($f),* })? $(( $($t),* ))?);
                    })*
                }
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
                let at = d.r.offset();
                Ok(match d.r.get_u64()? {
                    $($tag => messages!(@get d $name $({ $($f),* })? $(( $($t),* ))?),)*
                    tag => return Err(DecodeError::new(at, unknown_tag(), Found::Length(tag))),
                })
            }
        }
    };
}

// Tags 0 (row batches), 4 (per-move `Extract`) and 12 (a separate
// checkpoint snapshot request) are retired: decoding them fails.
messages! {
    1 => DataChunk(chunk),
    2 => PrepareReceive { kg, ack },
    3 => CancelReceive { kg },
    5 => Install { kg, op, state, done },
    6 => EpochBarrier { epoch, moves, participants, install_done, done },
    7 => PeerBarrier { epoch, from },
    8 => Barrier(ack),
    9 => FlushWindows { ack },
    10 => CollectStats { capture, reply },
    11 => ProbeState { kg, reply },
    13 => Rollback { states, spilled, segment, ack },
    14 => Crash,
    15 => Shutdown,
    16 => RoutingUpdate { version, assignment },
    17 => SpillGroups { segment, extents },
}

/// The message tags as runs joined by `to`: `1..=3, 5..=11 or 13..=17`.
fn tag_runs(to: &str) -> String {
    let tags: Vec<u64> = MSG_TAGS.iter().map(|&(tag, _)| tag).collect();
    let runs: Vec<String> = (tags.chunk_by(|a, b| a + 1 == *b))
        .map(|run| match run {
            [one] => one.to_string(),
            _ => format!("{}{to}{}", run[0], run[run.len() - 1]),
        })
        .collect();
    match runs.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
        _ => runs.concat(),
    }
}

/// What an unknown message tag was expected to be.
fn unknown_tag() -> &'static str {
    static TEXT: OnceLock<&'static str> = OnceLock::new();
    TEXT.get_or_init(|| Box::leak(format!("message tag {}", tag_runs("..=")).into_boxed_str()))
}

/// A `ROUTING` frame body: the version stamp and the full assignment —
/// the fields of [`Msg::RoutingUpdate`], so tag 16 minus its tag.
pub(crate) type Routing = (u64, Vec<NodeId>);

// ---- The reply table ---------------------------------------------------

/// A payload a [`ReplyTo`] can carry across the wire. Only the reply
/// table implements it, so a message cannot gain a reply type that the
/// table — and the decode fuzz it drives — does not list.
pub(crate) trait Reply: Wire + Send + 'static {}

macro_rules! replies {
    ($($t:ty),* $(,)?) => {
        $(impl Reply for $t {})*

        /// Decode `bytes` as every reply payload type, dropping the
        /// results: the fail-closed fuzz reaches the payload decoders the
        /// controller runs on a daemon's bytes through here.
        pub(crate) fn decode_every_reply(bytes: &[u8]) {
            $(let _ = decode::<$t>(bytes, None);)*
        }
    };
}

replies! {
    (),
    Activity,
    NodeId,
    (KeyGroupId, InstallReply),
    StatsReply,
    Option<Vec<u8>>,
}

/// An in-process channel becomes a wire id parked in the encoder's
/// correlator (see [`encode_with`]); a wire id passes through. Decoded,
/// a handle is always a wire id answering on the decoder's uplink.
impl<T: Reply> Wire for ReplyTo<T> {
    fn put(&self, e: &mut Enc<'_>) {
        let id = match self {
            ReplyTo::Chan(tx) => {
                let tx = tx.clone();
                let correlator = e.correlator.expect(
                    "an in-process reply channel crosses the wire only through a correlator",
                );
                correlator.register(Arc::new(move |d: &mut Dec<'_>| {
                    // A closed receiver is normal: no-op barrier waves
                    // drop theirs immediately.
                    let _ = tx.send(d.last()?);
                    Ok(())
                }))
            }
            ReplyTo::Wire { id, .. } => *id,
        };
        id.put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(ReplyTo::Wire {
            id: d.get()?,
            out: d.out.cloned(),
        })
    }
}

impl<T: Reply> ReplyTo<T> {
    /// Deliver a reply: through the channel in-process, as a `REPLY`
    /// frame `[u64 id][payload]` up the daemon's socket, or silently
    /// dropped on the controller-relay passthrough (`Wire` without an
    /// uplink — the controller only re-encodes such handles, it never
    /// answers them). Returns the payload on failure so callers keep
    /// their existing loss handling.
    pub(crate) fn send(&self, v: T) -> Result<(), T> {
        match self {
            ReplyTo::Chan(tx) => tx.send(v).map_err(|e| e.0),
            ReplyTo::Wire { id, out: Some(o) } => {
                let mut e = Enc::new(o.compress(), None);
                id.put(&mut e);
                v.put(&mut e);
                o.send_frame(FRAME_REPLY, &e.w.into_bytes()).map_err(|_| v)
            }
            ReplyTo::Wire { out: None, .. } => Ok(()),
        }
    }
}

// ---- Correlator --------------------------------------------------------

/// A reply channel parked on the controller while its wire id is in
/// flight: decodes a `REPLY` payload as the channel's type and delivers
/// it. Cloned out of the table to fire, so decode and send happen outside
/// the lock.
type Pending = Arc<dyn Fn(&mut Dec<'_>) -> Result<(), DecodeError> + Send + Sync>;

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
    fn register(&self, p: Pending) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let gen = self.gen.load(Ordering::Relaxed);
        let session = self.session.load(Ordering::Relaxed);
        self.entries.lock().insert(id, (gen, session, p));
        id
    }

    /// Resolve a `REPLY` body `[u64 id][payload]`: decode the payload
    /// with the parked channel's type and deliver it. An unknown id
    /// (pruned generation or session, or a duplicate reply racing the GC)
    /// is ignored.
    pub(crate) fn fire(&self, reply: &[u8]) -> Result<(), DecodeError> {
        let mut d = Dec::new(reply, None);
        let id: u64 = d.get()?;
        let pending = self.entries.lock().get(&id).map(|(_, _, p)| Arc::clone(p));
        match pending {
            Some(p) => p(&mut d),
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

// ---- Handshake & bootstrap bodies --------------------------------------

/// The handshake magic `HELLO` and `RESUME` lead with.
struct Magic;

/// `HELLO` body: after the magic, the node id the worker was launched
/// (or is joining) for and the shared-secret join token.
pub(crate) struct Hello {
    pub(crate) node: NodeId,
    pub(crate) token: String,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Value;
    use proptest::prelude::*;

    /// Message tag 0 once carried row batches, tag 4 a per-move
    /// `Extract` and tag 12 a separate checkpoint snapshot request; none
    /// of these frames exists any more. A `MSG` or `FORWARD` body bearing
    /// one — here shaped like a well-formed message of the old layout —
    /// must fail at the tag with a typed error instead of being parsed.
    #[test]
    fn message_tag_zero_is_rejected_with_a_typed_decode_error() {
        // Tag, rows, operator, key group, key, value, timestamp.
        let mut row_batch = Writer::new();
        for word in [0, 1, 0, 0, 7] {
            row_batch.put_u64(word);
        }
        row_batch.put_value(&Value::Int(1));
        row_batch.put_u64(0);
        // Tag, key group, destination node, reply id.
        let extract = encode(&(4u64, 3u64, 1u64, 9u64));
        // Tag, delta only, reply id.
        let snapshot = encode(&(12u64, 1u64, 9u64));
        for (tag, body) in [(0, row_batch.into_bytes()), (4, extract), (12, snapshot)] {
            let forward = [encode(&NodeId::new(2)), body.clone()].concat();

            for (kind, payload) in [(FRAME_MSG, &body), (FRAME_FORWARD, &forward)] {
                let mut bytes = Vec::new();
                put_session_frame(&mut bytes, kind, 1, 0, payload);
                let mut frames = FrameBuffer::new();
                frames.extend(&bytes);
                let (got_kind, frame) = frames.next_frame().unwrap().expect("one whole frame");
                assert_eq!(got_kind, kind);
                let (_, _, payload) = split_session(frame).unwrap();
                let (decoded, at) = match kind {
                    FRAME_FORWARD => (decode::<(NodeId, Msg)>(payload, None).map(drop), 8),
                    _ => (decode::<Msg>(payload, None).map(drop), 0),
                };
                let Err(err) = decoded else {
                    panic!("frame kind {kind}: tag {tag} decoded as a message");
                };
                assert_eq!(err.offset, at, "frame kind {kind}, tag {tag}");
                assert_eq!(err.expected, "message tag 1..=3, 5..=11 or 13..=17");
                assert!(matches!(err.found, Found::Length(t) if t == tag), "{err}");
            }
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
                let blobs = (states.clone())
                    .map(|s: Vec<_>| s.into_iter().map(|(g, b)| (g, StateBlob::new(b))).collect());
                let reply: StatsReply = (NodeId::new(1), StatsCollector::new(), blobs, 0);
                let back: StatsReply =
                    decode(&encode_with(&reply, compress, None), None).expect("decode");
                let back_states = back
                    .2
                    .map(|s| s.into_iter().map(|(g, b)| (g, b.bytes)).collect::<Vec<_>>());
                assert_eq!((back.0, back_states), (NodeId::new(1), states.clone()));
            }
        }
        // A presence tag other than 0 or 1 fails closed (the states tag
        // is the word before the trailing failure count).
        let bare: StatsReply = (NodeId::new(1), StatsCollector::new(), None, 0);
        let mut bytes = encode(&bare);
        let tag = bytes.len() - 16;
        bytes[tag] = 7;
        let Err(err) = decode::<StatsReply>(&bytes, None) else {
            panic!("states tag 7 decoded");
        };
        assert_eq!(err.expected, "option tag 0..=1");
    }

    /// Encode `msg` as the controller does (parking its reply channels in
    /// `correlator`) and decode it as the relaying controller does.
    fn over_the_wire(msg: &Msg, correlator: &Correlator) -> Msg {
        decode(&encode_with(msg, false, Some(correlator)), None).expect("decode")
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
            let (Msg::Barrier(ReplyTo::Wire { id, .. })
            | Msg::FlushWindows {
                ack: ReplyTo::Wire { id, .. },
            }) = over_the_wire(msg, &correlator)
            else {
                panic!("message {i} changed kind on the wire");
            };
            let ack: Activity = (NodeId::new(3), u64::MAX - i as u64);
            correlator.fire(&encode(&(id, ack))).expect("fire");
            assert_eq!(rx.try_recv(), Ok(ack));
        }
    }

    /// A body with one byte after its last field fails closed at that
    /// byte: a message decodes to nothing, and a `REPLY` resolves nothing.
    #[test]
    fn decode_and_fire_reject_a_body_with_a_trailing_byte() {
        let crash = encode(&Msg::Crash);
        let err = decode::<Msg>(&[&crash[..], &[0]].concat(), None).err();
        assert_eq!(
            err.map(|e| (e.offset, e.expected)),
            Some((8, "end of body"))
        );

        let correlator = Correlator::new();
        let (tx, rx) = crossbeam::channel::unbounded();
        let Msg::Barrier(ReplyTo::Wire { id, .. }) =
            over_the_wire(&Msg::Barrier(ReplyTo::Chan(tx)), &correlator)
        else {
            panic!("a barrier changed kind on the wire");
        };
        let reply = encode(&(id, (NodeId::new(3), 9u64)));
        let err = correlator.fire(&[&reply[..], &[0]].concat()).err();
        assert_eq!(
            err.map(|e| (e.offset, e.expected)),
            Some((24, "end of body"))
        );
        assert!(rx.try_recv().is_err(), "a long reply resolved its channel");
        correlator.fire(&reply).expect("fire");
        assert_eq!(rx.try_recv(), Ok((NodeId::new(3), 9)));
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
        let Err(err) = decode::<Msg>(&encode(&(10u64, 3u64, 1u64)), None) else {
            panic!("capture tag 3 decoded");
        };
        assert_eq!(err.expected, "capture tag 0..=2");
    }

    /// Tag 17: a spill message carries the segment path and the extents;
    /// an extent length beyond a record header's `u32` fails closed.
    #[test]
    fn spill_groups_round_trip_extents_and_reject_oversized_lengths() {
        let extents = vec![
            SpillExtent {
                group: 3,
                off: (5 << 32) + 4112,
                len: u32::MAX,
            },
            SpillExtent {
                group: 17,
                off: 0,
                len: 0,
            },
        ];
        let msg = Msg::SpillGroups {
            segment: "/tmp/spill/spill-0.seg".into(),
            extents: extents.clone(),
        };
        match over_the_wire(&msg, &Correlator::new()) {
            Msg::SpillGroups {
                segment,
                extents: back,
            } => assert_eq!(
                (segment.as_str(), back),
                ("/tmp/spill/spill-0.seg", extents)
            ),
            _ => panic!("not a spill message"),
        }
        let mut bytes = encode(&(17u64, "s".to_string(), 1u64));
        bytes.extend(encode(&(3u64, 0u64, 1u64 << 32)));
        let Err(err) = decode::<Msg>(&bytes, None) else {
            panic!("a 4 GiB extent decoded");
        };
        assert_eq!(err.expected, "extent length below 4 GiB");
    }

    /// Workers of earlier protocol revisions (`ALBIC_W4` to `ALBIC_W6`)
    /// are turned away at `HELLO` and at `RESUME`: their barrier acks,
    /// statistics replies and spill messages have a different layout.
    #[test]
    fn an_earlier_revision_handshake_is_rejected() {
        let corpus = golden_corpus();
        let body = |name: &str| {
            corpus
                .iter()
                .find(|c| c.0 == name)
                .expect("a case")
                .1
                .clone()
        };
        let (hello, resume) = (body("hello"), body("resume"));
        assert!(decode::<Hello>(&hello, None).is_ok());
        assert!(decode::<ResumeMsg>(&resume, None).is_ok());
        for old in [*b"ALBIC_W4", *b"ALBIC_W5", *b"ALBIC_W6"] {
            let old = u64::from_be_bytes(old);
            let (mut hello, mut resume) = (hello.clone(), resume.clone());
            hello[..8].copy_from_slice(&old.to_le_bytes());
            resume[..8].copy_from_slice(&old.to_le_bytes());
            let Err(err) = decode::<Hello>(&hello, None) else {
                panic!("an earlier revision's HELLO decoded");
            };
            assert_eq!(err.expected, "wire magic");
            assert!(matches!(err.found, Found::Length(m) if m == old), "{err}");
            assert!(decode::<ResumeMsg>(&resume, None).is_err());
        }
    }

    /// A `ROUTING` frame body is tag 16's fields: the same layout.
    #[test]
    fn the_routing_frame_is_tag_16_without_its_tag() {
        let (version, assignment) = (7, vec![NodeId::new(1), NodeId::new(4)]);
        let msg = encode(&Msg::RoutingUpdate {
            version,
            assignment: assignment.clone(),
        });
        assert_eq!(msg[..8], 16u64.to_le_bytes());
        assert_eq!(msg[8..], encode(&(version, assignment))[..]);
    }

    /// `docs/TRANSPORT.md` lists exactly the declared message tags, in
    /// its tag table and in the sentence above it.
    #[test]
    fn the_transport_doc_lists_exactly_the_declared_tags() {
        let doc = include_str!("../../../../docs/TRANSPORT.md");
        let sentence = format!("message tag, {}.", tag_runs("–"));
        assert!(doc.contains(&sentence), "the doc lacks {sentence:?}");
        let rows = doc
            .lines()
            .skip_while(|l| !l.starts_with("| tag | message |"));
        let mut listed = Vec::new();
        for row in rows.skip(2).take_while(|l| l.starts_with('|')) {
            let cells: Vec<&str> = row.split('|').skip(1).map(str::trim).collect();
            for pair in cells.chunks(2) {
                let name = pair
                    .get(1)
                    .and_then(|c| c.strip_prefix('`')?.strip_suffix('`'));
                if let (Ok(tag), Some(name)) = (pair[0].parse::<u64>(), name) {
                    listed.push((tag, name));
                }
            }
        }
        listed.sort_unstable();
        assert_eq!(listed, MSG_TAGS);
    }

    // ---- Golden corpus and round trips ----------------------------------

    /// One encoded `ALBIC_W7` body per message tag, reply payload type and
    /// handshake frame, as `name hex` lines. Regenerate it (with
    /// `write_golden_corpus`) only together with a magic bump.
    const GOLDEN: &str = include_str!("../../testdata/wire_w7.golden");

    /// Where the test values' ids, words, blobs and list lengths come
    /// from: fixed for the golden corpus, arbitrary for the proptest.
    trait Source {
        /// An id or group number: a word decoded through a checked `u32`.
        fn id(&mut self) -> u32;
        /// Any other word.
        fn num(&mut self) -> u64;
        fn len(&mut self) -> usize;
        fn bytes(&mut self) -> Vec<u8>;
    }

    /// The golden values. Every id is a distinct sentinel that the
    /// out-of-range test finds in the corpus; other words are small.
    #[derive(Default)]
    struct Fixed(u32);

    const SENTINEL: u32 = 0x5A5A_0000;

    impl Source for Fixed {
        fn id(&mut self) -> u32 {
            self.0 += 1;
            SENTINEL + self.0
        }
        fn num(&mut self) -> u64 {
            self.0 += 1;
            self.0 as u64
        }
        fn len(&mut self) -> usize {
            2
        }
        /// A blob LZ4 shrinks, or one too short to compress.
        fn bytes(&mut self) -> Vec<u8> {
            self.0 += 1;
            match self.0 % 2 {
                0 => (0..200u8).map(|i| i % 4).collect(),
                _ => vec![self.0 as u8; 3],
            }
        }
    }

    /// Arbitrary values from a splitmix64 stream.
    struct Random(u64);

    impl Source for Random {
        fn id(&mut self) -> u32 {
            self.num() as u32
        }
        fn num(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn len(&mut self) -> usize {
            self.num() as usize % 5
        }
        /// Noise, or a repetitive run LZ4 shrinks.
        fn bytes(&mut self) -> Vec<u8> {
            let n = self.num() % 300;
            match self.num() % 2 {
                0 => (0..n).map(|_| self.num() as u8).collect(),
                _ => (0..n).map(|i| (i % 3) as u8).collect(),
            }
        }
    }

    fn list<T>(s: &mut dyn Source, mut item: impl FnMut(&mut dyn Source) -> T) -> Vec<T> {
        (0..s.len()).map(|_| item(s)).collect()
    }
    fn node(s: &mut dyn Source) -> NodeId {
        NodeId::new(s.id())
    }
    fn group(s: &mut dyn Source) -> KeyGroupId {
        KeyGroupId::new(s.id())
    }
    fn text(s: &mut dyn Source) -> String {
        format!("/spill/{}", s.num())
    }
    fn rid<T>(s: &mut dyn Source) -> ReplyTo<T> {
        ReplyTo::Wire {
            id: s.num(),
            out: None,
        }
    }
    fn states(s: &mut dyn Source) -> Vec<(u32, StateBlob)> {
        list(s, |s| (s.id(), StateBlob::new(s.bytes())))
    }
    fn extents(s: &mut dyn Source) -> Vec<SpillExtent> {
        list(s, |s| SpillExtent {
            group: s.id(),
            off: s.num() << 32,
            len: s.id(),
        })
    }
    fn stats(s: &mut dyn Source) -> StatsCollector {
        let mut c = StatsCollector::new();
        for m in [
            &mut c.tuples_in,
            &mut c.cross_in,
            &mut c.cross_out,
            &mut c.state_bytes,
            &mut c.group_cost,
        ] {
            m.insert(s.id(), f64::from_bits(s.num()));
        }
        c.out_matrix
            .insert((s.id(), s.id()), f64::from_bits(s.num()));
        (c.ingested, c.emitted) = (s.num() as f64, s.num() as f64);
        c.dropped = f64::from_bits(s.num());
        c
    }

    /// Decodes a body as its receiver does and encodes the value again.
    type Reencode = Box<dyn Fn(&[u8]) -> Result<Vec<u8>, DecodeError>>;

    /// One case: its name, its value's encoding, and the decoder its
    /// receiver runs. Encoded as a compressing link does: a blob that is
    /// short or does not shrink still goes raw.
    fn case<T: Wire + 'static>(name: &'static str, v: &T) -> (&'static str, Vec<u8>, Reencode) {
        let reencode = |bytes: &[u8]| Ok(encode_with(&decode::<T>(bytes, None)?, true, None));
        (name, encode_with(v, true, None), Box::new(reencode))
    }

    /// Every message tag (a rollback with and without a segment), every
    /// reply payload type (both install arms, statistics with and without
    /// states, a probe with and without state) and every frame body, with
    /// values drawn from `s`.
    fn cases(s: &mut dyn Source) -> Vec<(&'static str, Vec<u8>, Reencode)> {
        let mut chunk = StreamChunk::new();
        let values = [
            Value::Int(s.num() as i64),
            Value::Str(text(s)),
            Value::Float(f64::from_bits(s.num())),
            Value::List(vec![Value::Null, Value::Int(s.num() as i64)]),
        ];
        for (i, value) in values.into_iter().enumerate() {
            let (key, ts) = (s.num(), s.num());
            chunk.push(key, value, ts);
            chunk.set_group(i, s.num() as u32);
        }
        let installed = InstallReply::Installed {
            state_bytes: s.num() as usize,
            wire_bytes: s.num() as usize,
        };
        // The draws W6's daemon-gauge sample took, so that every other
        // case keeps its W6 values.
        let _retired_gauge = (s.num(), s.num(), s.num());
        let full: StatsReply = (node(s), stats(s), Some(states(s)), s.num());
        let bare: StatsReply = (node(s), stats(s), None, s.num());
        let init = InitMsg {
            cfg: RuntimeConfig {
                batch_size: s.num() as usize,
                channel_capacity: s.num() as usize,
                flush_interval: Duration::from_nanos(s.num()),
                barrier_interval: s.num() as usize,
            },
            ops: list(s, |s| InitOp {
                name: text(s),
                logic: text(s),
                key_groups: s.id(),
                is_source: s.num() % 2 == 1,
            }),
            edges: list(s, |s| (s.id(), s.id())),
            routing_version: s.num(),
            assignment: list(s, node),
            compression: s.num() % 2 == 1,
            reconnect: ReconnectPolicy {
                attempts: s.num() as u32,
                base_backoff: Duration::from_nanos(s.num()),
                max_backoff: Duration::from_nanos(s.num()),
                jitter: (s.num() % 1000) as f64 / 1000.0,
            },
        };
        let capture = CAPTURES[s.num() as usize % 3];
        vec![
            case("msg_data_chunk", &Msg::DataChunk(chunk)),
            case(
                "msg_prepare_receive",
                &Msg::PrepareReceive {
                    kg: group(s),
                    ack: rid(s),
                },
            ),
            case("msg_cancel_receive", &Msg::CancelReceive { kg: group(s) }),
            case(
                "msg_install",
                &Msg::Install {
                    kg: group(s),
                    op: OperatorId::new(s.id()),
                    state: StateBlob::new(s.bytes()),
                    done: rid(s),
                },
            ),
            case(
                "msg_epoch_barrier",
                &Msg::EpochBarrier {
                    epoch: s.num(),
                    moves: Arc::new(list(s, |s| (group(s), node(s), node(s)))),
                    participants: Arc::new(list(s, node)),
                    install_done: rid(s),
                    done: rid(s),
                },
            ),
            case(
                "msg_peer_barrier",
                &Msg::PeerBarrier {
                    epoch: s.num(),
                    from: node(s),
                },
            ),
            case("msg_barrier", &Msg::Barrier(rid(s))),
            case("msg_flush_windows", &Msg::FlushWindows { ack: rid(s) }),
            case(
                "msg_collect_stats",
                &Msg::CollectStats {
                    capture,
                    reply: rid(s),
                },
            ),
            case(
                "msg_probe_state",
                &Msg::ProbeState {
                    kg: group(s),
                    reply: rid(s),
                },
            ),
            case(
                "msg_rollback_with_segment",
                &Msg::Rollback {
                    states: states(s),
                    spilled: extents(s),
                    segment: Some(text(s)),
                    ack: rid(s),
                },
            ),
            case(
                "msg_rollback_without_segment",
                &Msg::Rollback {
                    states: states(s),
                    spilled: extents(s),
                    segment: None,
                    ack: rid(s),
                },
            ),
            case("msg_crash", &Msg::Crash),
            case("msg_shutdown", &Msg::Shutdown),
            case(
                "msg_routing_update",
                &Msg::RoutingUpdate {
                    version: s.num(),
                    assignment: list(s, node),
                },
            ),
            case(
                "msg_spill_groups",
                &Msg::SpillGroups {
                    segment: text(s),
                    extents: extents(s),
                },
            ),
            case("reply_unit", &()),
            case("reply_activity", &(node(s), s.num())),
            case("reply_node", &node(s)),
            case("reply_install_installed", &(group(s), installed)),
            case(
                "reply_install_gone",
                &(group(s), InstallReply::DestinationGone),
            ),
            case("reply_stats_full", &full),
            case("reply_stats_bare", &bare),
            case("reply_probe_some", &Some(s.bytes())),
            case("reply_probe_none", &None::<Vec<u8>>),
            case(
                "hello",
                &Hello {
                    node: node(s),
                    token: text(s),
                },
            ),
            case("init", &init),
            case(
                "resume",
                &ResumeMsg {
                    node: node(s),
                    token: text(s),
                    delivered: s.num(),
                    routing_version: s.num(),
                },
            ),
            case("resumed", &s.num()),
            case("ack", &s.num()),
            case("routing", &(s.num(), list(s, node))),
            case(
                "forward",
                &(
                    node(s),
                    Msg::PeerBarrier {
                        epoch: s.num(),
                        from: node(s),
                    },
                ),
            ),
        ]
    }

    fn to_hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn golden_corpus() -> Vec<(String, Vec<u8>)> {
        GOLDEN
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let (name, hex) = l.split_once(' ').expect("`name hex` line");
                let bytes = (0..hex.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
                    .collect();
                (name.to_string(), bytes)
            })
            .collect()
    }

    /// Every golden case encodes to the committed `ALBIC_W7` bytes
    /// exactly, and every committed body decodes to a value that encodes
    /// back to the same bytes — since the encoding is injective, that is
    /// the value the case was made from.
    #[test]
    fn the_golden_corpus_reproduces_byte_for_byte() {
        assert_eq!(WIRE_MAGIC, u64::from_be_bytes(*b"ALBIC_W7"));
        let corpus = golden_corpus();
        let cases = cases(&mut Fixed::default());
        let corpus_names: Vec<&str> = corpus.iter().map(|c| c.0.as_str()).collect();
        let case_names: Vec<&str> = cases.iter().map(|c| c.0).collect();
        assert_eq!(corpus_names, case_names, "corpus cases");
        for ((name, golden), (_, encoded, reencode)) in corpus.iter().zip(&cases) {
            assert_eq!(to_hex(encoded), to_hex(golden), "{name}: encoding changed");
            let back = reencode(golden).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                to_hex(&back),
                to_hex(golden),
                "{name}: decode is not the inverse"
            );
        }
    }

    /// Rewrites the corpus from the golden values. Run only with a magic
    /// bump: `cargo test -p albic-engine --lib write_golden_corpus -- --ignored`.
    #[test]
    #[ignore]
    fn write_golden_corpus() {
        let mut text = String::from(
            "# ALBIC_W7 wire bodies: `case hex`, from transport::wire's golden cases.\n",
        );
        for (name, bytes, _) in cases(&mut Fixed::default()) {
            text.push_str(&format!("{name} {}\n", to_hex(&bytes)));
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/wire_w7.golden");
        std::fs::write(path, text).expect("write corpus");
    }

    /// An id word beyond `u32` fails closed at every position that holds
    /// one, instead of being truncated onto another id (which would, for
    /// a `FORWARD` destination, relay the message to the wrong worker);
    /// `INIT`'s flags reject anything but 0 and 1. Each id position is a
    /// golden sentinel; the flags follow the first operator's key-group
    /// count and the last assignment entry.
    #[test]
    fn out_of_range_ids_and_flags_fail_closed() {
        let cases = cases(&mut Fixed::default());
        let mut patched = 0;
        for ((name, golden), (_, _, reencode)) in golden_corpus().iter().zip(&cases) {
            let find = |id: u32| {
                let word = (id as u64).to_le_bytes();
                let hits: Vec<usize> = (0..golden.len().saturating_sub(7))
                    .filter(|&at| golden[at..at + 8] == word)
                    .collect();
                assert_eq!(hits.len(), 1, "{name}: sentinel {id:#x} is not unique");
                hits[0]
            };
            let mut words: Vec<(usize, u64)> = (SENTINEL + 1..SENTINEL + 1000)
                .filter(|&id| golden.windows(8).any(|w| w == (id as u64).to_le_bytes()))
                .map(|id| (find(id), (1 << 32) + 1))
                .collect();
            if name == "init" {
                let init: InitMsg = decode(golden, None).expect("golden INIT");
                let last = init.assignment.last().expect("an assignment").raw();
                words.push((find(init.ops[0].key_groups) + 8, 2));
                words.push((find(last) + 8, 2));
            }
            for (at, value) in words {
                let mut bytes = golden.clone();
                bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                assert!(
                    reencode(&bytes).is_err(),
                    "{name}: the word at {at} set to {value:#x} decoded"
                );
                patched += 1;
            }
        }
        assert!(patched >= 60, "only {patched} positions patched");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary values of every case survive encode and decode.
        #[test]
        fn every_tag_reply_and_frame_round_trips(seed in any::<u64>()) {
            for (name, bytes, reencode) in cases(&mut Random(seed)) {
                let back = reencode(&bytes)
                    .map_err(|e| proptest::TestCaseError::Fail(format!("{name}: {e}")))?;
                prop_assert_eq!(to_hex(&back), to_hex(&bytes), "{}", name);
            }
        }
    }
}
