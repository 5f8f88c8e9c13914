//! The multi-threaded runtime: one worker thread per node, with a
//! batched, backpressure-aware data plane.
//!
//! This is the "real" execution mode: tuples are routed by key group,
//! processed against per-key-group state by user operator logic, and
//! forwarded downstream over channels. Reconfiguration moves state with
//! the direct state migration protocol of §3, executed as one numbered
//! **epoch barrier wave** per plan ([`Runtime::migrate`]):
//!
//! 1. every destination opens a receive window for its incoming group
//!    (and acks it) before the wave starts, so a tuple reaching its new
//!    owner ahead of the state is buffered, never processed into a fresh
//!    "ghost" state;
//! 2. the barrier is broadcast to every live worker. A worker receiving
//!    it flips its local routing cache for the wave's moves (the shared
//!    table's version is untouched, so no cache refresh can clobber the
//!    flip) and announces the barrier to every other participant;
//! 3. because each inbox is FIFO per sender, a worker that has seen the
//!    announcement from every peer knows all pre-barrier traffic on its
//!    inbound edges has drained. At that point — *alignment* — it
//!    serializes the states it is the source of (`σ_k`) and ships them
//!    directly to their destinations;
//! 4. each destination rebuilds the state, replays its window in arrival
//!    order and resumes normal processing; tuples that still reach the
//!    source are forwarded by its flipped cache, so nothing is lost;
//! 5. the coordinator flips the authoritative routing table once every
//!    participant has completed and every move's state is installed —
//!    all of the wave's moves under one version bump, so no worker cache
//!    ever refreshes into a half-flipped table.
//!
//! A worker crashing mid-wave aborts the epoch: nothing authoritative
//! has flipped, surviving destinations cancel their windows, and the
//! next recovery pass rolls back and clears the in-flight epoch
//! bookkeeping — exactly-once is preserved by checkpoint + replay
//! exactly as for a crash outside a wave.
//!
//! # Reconfiguration modes
//!
//! [`crate::substrate::ReconfigMode`] does not pick a different protocol,
//! only what runs around the wave:
//!
//! * **Quiesce** (the default): stop-the-world. With recovery enabled the
//!   injection fence is held for the whole plan — external producers
//!   block — and the data plane is settled before and after the wave.
//!   The period is charged the *sum* of the move pauses.
//! * **Epoch**: the wave runs alone. Only the moving edges pause;
//!   unrelated operators, and the external producers, keep streaming.
//!   The period is charged the *slowest* move's pause. With
//!   [`RuntimeConfig::barrier_interval`] set, the ingestion edge also
//!   injects periodic *no-op* waves (numbered from the same counter) so
//!   alignment is continuously exercised under load.
//!
//! # Data plane
//!
//! Every tuple hop between operators or workers is a columnar
//! [`StreamChunk`] — injection, worker-to-worker hand-off, migration
//! buffers and their replay, and period-end window emissions alike. Each
//! worker splices its outbound rows into one pending chunk per
//! destination and flushes a chunk when it reaches
//! [`RuntimeConfig::batch_size`] rows, when
//! [`RuntimeConfig::flush_interval`] elapses while the worker is busy,
//! when the worker goes idle, and always before acknowledging any control
//! message (so barriers, migrations and statistics see exactly the same
//! tuple flow an unbatched engine would). Batching is what lets the
//! hand-off between worker threads approach hardware limits instead of
//! being dominated by per-message channel overhead; `batch_size = 1` is
//! the per-tuple hand-off baseline.
//!
//! A worker buckets each inbound chunk by key group and handles each
//! group's run whole: buffered if the group is mid-migration, forwarded
//! if it is owned elsewhere, else one operator call. The owned runs append
//! what they emit to one buffer per emitting operator, and after the run
//! loop each buffer is dispatched once per downstream operator — one group
//! assignment and one bucket pass — so a key-group run costs what its rows
//! cost, however many groups share the chunk. The locally owned rows of
//! that dispatch form one chunk, the next level, processed only after
//! every run of this level. Per key group, rows keep arrival order; rows
//! that different upstream groups send to one downstream group arrive in
//! upstream-run order, which nothing promises. Nothing on the per-run path
//! writes a cache line another worker writes: the worker borrows the job's
//! immutable topology (and its operators) for its whole life, never
//! cloning a shared `Arc` per run.
//!
//! Each worker reads one *inbox* (`runtime::inbox`), a FIFO channel for
//! data and control messages alike. Its inbound side batches too, without
//! a timer: it hands out a data chunk topped up with the data chunks
//! queued right behind it, up to `batch_size` rows, stopping at the first
//! chunk that does not fit and at the first control message, which it
//! hands out next — no control message is ever overtaken by data queued
//! behind it. A paced source injects a few tuples per call; without this
//! every sliver would pay its own run dispatch, state lookup and emission
//! at every hop. An idle inbox adds no wait; a full chunk is never copied.
//!
//! Chunk buffers circulate rather than being allocated on one thread and
//! freed on another. A worker keeps a small pool for its own scratch
//! chunks; past that, a chunk it has consumed goes back, cleared, to its
//! inbox's *spare list*, as does every chunk merged away and every chunk
//! a networked stub has encoded. Producers (the [`Injector`], a worker for
//! each outbound chunk, a daemon's uplink reader for each chunk it
//! decodes) take from the spare list of the inbox they pack for; a worker
//! whose pool runs dry takes back from its own. No chunk in the loop
//! outgrows `batch_size` rows, so every buffer keeps fitting. The list
//! fills only from traffic, holds at most `channel_capacity` buffers and
//! frees any of more than `batch_size` rows.
//!
//! An inbox is *bounded* at [`RuntimeConfig::channel_capacity`] data
//! chunks by its credit, taken when a chunk is sent and returned when it
//! is handed out; control messages take none:
//!
//! * [`Runtime::inject`] (and every [`Injector`]) blocks while the
//!   destination's queue is at capacity — backpressure propagates to the
//!   external producer, which is the signal a source would see in a real
//!   deployment;
//! * worker→worker hand-off waits a bounded interval for capacity, then
//!   overshoots (counting [`NodePressure::overflow`]) — workers must
//!   never block each other indefinitely, or cyclic placements would
//!   deadlock the data plane;
//! * control messages are never gated, so reconfiguration cannot be
//!   wedged by data pressure.
//!
//! # How the coordinator waits
//!
//! Every control protocol — settle rounds, `end_period`'s window flush
//! and statistics collection (which carries the checkpoint capture), the
//! epoch wave, `probe_state` and recovery — is a fan-out of control messages that
//! each carry a reply channel, followed by a wait for the replies
//! (`Runtime::gather`, `Runtime::wait_reply`). The wait takes a reply as
//! soon as it lands, so an adaptation round costs what its workers take
//! to answer, not a multiple of a poll interval. For the first
//! `PRESSURE_POLL` (100 µs) it polls the reply channel, yielding the CPU
//! between looks: a healthy worker answers well within that, and a reply
//! taken without parking saves the coordinator a sleep and a wake-up
//! (parking every wait, the paced-ingest benchmark's event latency rose
//! by 10–20 % on a 2-vCPU machine). A slower reply is waited for blocked
//! on the channel. The block times out every `PRESSURE_POLL` only to
//! re-check that the workers being waited on are still alive: a crashed
//! worker can never answer, yet its copy of the reply sender survives in
//! its parked inbox, so the channel never disconnects. A wait whose
//! worker died takes any reply that raced the death and returns short;
//! the next [`Runtime::recover`] handles the corpse.
//!
//! Waiting for a quiet data plane ([`Runtime::quiesce`], behind every
//! settle) *counts* instead of running a fixed number of barrier rounds.
//! Every worker keeps one monotonic activity counter: data chunks it
//! dequeued plus data chunks it sent to a peer (a channel send, or a
//! daemon's `FORWARD` frame). A round is a `Barrier` message to every live
//! worker, answered with the counter once the worker's outbox is flushed.
//! The wait stops at the first complete round whose counters equal the
//! previous complete round's over the same workers. Equal counters prove
//! the plane quiet because inboxes are FIFO per sender: a chunk sent
//! before its sender acked round *r−1* is queued ahead of round *r*'s
//! barrier at its receiver (in-process because round *r* is sent only
//! after that ack arrived; over sockets because the hub relays a daemon's
//! `FORWARD` into the receiver's queue before it resolves the `REPLY`
//! written after it), so the receiver dequeued it before acking round *r*
//! — and, its counter unchanged, before acking round *r−1*. A chunk sent
//! later would have moved its sender's counter. So nothing was dequeued
//! or sent between the rounds, and every chunk sent before was dequeued
//! and (a worker finishes a chunk before its next message) processed.
//! The last complete round's counters are remembered: a settle on a
//! plane that was already quiet costs one round, and `end_period`'s
//! window flush, itself a counting round, needs no barrier after it
//! unless the windows emitted across workers. Chunks the coordinator
//! enqueued before a round move the counters; chunks other threads inject
//! concurrently are not waited for. A plane that keeps moving gets at
//! most `2·(depth+1)` rounds; a round a worker dies in ends the wait and
//! forgets the remembered counters.
//!
//! Every worker exports per-period ingest/emit counters and its queue
//! depth (current, peak, overflow) into [`PeriodStats::pressure`], so
//! scaling policies observe *measured* pressure, and every undeliverable
//! tuple is surfaced in [`PeriodStats::dropped_tuples`] instead of being
//! silently discarded.
//!
//! Workers keep local [`StatsCollector`]s that are merged at period
//! boundaries — the same statistics the simulator produces, so the
//! reconfiguration policies cannot tell which substrate they run on. That
//! promise is structural: the runtime implements the shared
//! [`ReconfigEngine`] trait, including full plan execution — elastic
//! scale-out spawns a worker thread per acquired node, scale-in marks
//! nodes, and [`Runtime::terminate_drained`] joins a marked worker's
//! thread once the balancer has migrated all of its key groups away.
//!
//! # Failure recovery
//!
//! Recovery shares the migration machinery instead of adding a second
//! state-movement path. With [`Runtime::configure_recovery`] enabled, the
//! engine captures a **period-aligned checkpoint** (every key group's
//! serialized state, taken at a settled `end_period` boundary with the
//! producers fenced out) and keeps a **bounded inject-side replay log**
//! of every tuple injected since. When [`Runtime::recover`] finds a
//! crashed worker (fault-injected via [`Runtime::inject_fault`], or a
//! panic), it re-homes the lost key groups onto the survivors through the
//! routing table ([`crate::fault::recovery_placement`] — the same
//! function the simulator uses), rolls every worker back to the
//! checkpoint through the same install path a migration's `Install` uses,
//! and replays the logged delta. Final states are bit-equal to a
//! fault-free run's (exactly-once across recovery); the accounting
//! (groups restored, tuples replayed, recovery seconds) lands in the next
//! [`PeriodRecord`]. The rollback rewinds period statistics to the
//! checkpoint at *any* interval: log entries are tagged with the period
//! they were injected in, replay re-measures only the entries of
//! already-closed periods and discards their re-measured stats before
//! re-injecting the current period's tail — so post-recovery statistics
//! count each logical tuple exactly once and the policies see the
//! failure only as a smaller cluster, regardless of the checkpoint
//! cadence.
//!
//! Checkpoints themselves come in two flavors ([`CheckpointMode`]): the
//! default full snapshot, and an **incremental log-structured store**
//! ([`crate::checkpoint`]) where each capture serializes only the key
//! groups written since the previous one (worker-side dirty sets),
//! stacked as delta layers over a base image and compacted at period
//! boundaries — capture cost O(changed state). With a
//! [`SpillConfig`], key groups cold for `cold_after` periods move to
//! disk and are faulted back in on access, so total state can exceed
//! memory and a recovery rollback ships only the hot set eagerly.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::{Mutex, RwLock};

use albic_types::{KeyGroupId, NodeId, OperatorId, PeriodClock};

use crate::checkpoint::{CheckpointMode, CheckpointStore, SegmentReader, SpillConfig, SpillExtent};
use crate::chunk::{ChunkEmissions, ChunkSlice, ChunkSorter, StreamChunk};
use crate::cluster::Cluster;
use crate::cost::CostModel;
use crate::fault::{recovery_placement, RecoveryReport, TerminateError};
use crate::migration::{Migration, MigrationReport};
use crate::operator::{Emissions, StateBox};
use crate::reconfig::{ClusterView, ReconfigPlan};
use crate::routing::RoutingTable;
use crate::stats::{FastMap, NodePressure, PeriodStats, StatsCollector};
use crate::substrate::{
    ApplyReport, FailedMigration, MigrationFailure, PeriodRecord, ReconfigEngine, ReconfigMode,
};
use crate::topology::Topology;
use crate::transport::wire::WireOut;
use crate::transport::{
    InProcessTransport, NetTransport, Peers, Transport, TransportOptions, WorkerMailbox,
    WorkerSpawn,
};

/// A worker's liveness handle: a live bridging thread, or a corpse — a
/// worker whose spawn failed outright, recorded with its unclaimed
/// mailbox so the normal crashed-worker machinery (graveyard drain,
/// recovery) applies uniformly instead of the job aborting.
enum WorkerHandle {
    Live(JoinHandle<WorkerMailbox>),
    Corpse(Option<WorkerMailbox>),
}

impl WorkerHandle {
    fn is_finished(&self) -> bool {
        match self {
            WorkerHandle::Live(h) => h.is_finished(),
            WorkerHandle::Corpse(_) => true,
        }
    }

    fn join(self) -> Option<WorkerMailbox> {
        match self {
            WorkerHandle::Live(h) => h.join().ok(),
            WorkerHandle::Corpse(m) => m,
        }
    }
}
use crate::tuple::Tuple;

pub(crate) mod inbox;
use inbox::{Inbox, InboxRx};

/// Data-plane tuning of the threaded runtime. Thread through
/// `Job::builder().runtime_config(..)` or [`Runtime::start_with_options`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Maximum rows per data chunk. `1` degenerates to the per-tuple
    /// hand-off (the measured baseline of `BENCH_runtime.json`).
    pub batch_size: usize,
    /// Maximum *data chunks* queued per worker before senders feel
    /// backpressure. Control messages are never gated.
    ///
    /// The memory this bounds per worker inbox is `channel_capacity ×
    /// batch_size × bytes per row`: an all-`Int` row takes 33 bytes over
    /// its six columns, so a 64-row chunk is about 2.2 KB and the default
    /// queue about 560 KB. The inbox's spare list of recycled chunk
    /// buffers (see the module docs, *Data plane*) is bounded by the same
    /// number. The default is 256 chunks, 16 Ki rows: producers that
    /// recycle buffers instead of allocating them fill a queue to its
    /// capacity, and at 1024 the deeper queue only added memory and
    /// queueing delay. On the `ingest` benchmark (2-vCPU Xeon, 3 runs
    /// each) 1024 held the same throughput at 19.2–19.5 MiB peak RSS
    /// and a 1.1–1.3 ms paced p99, against 14.8–14.9 MiB and 0.34–0.36
    /// ms at 256.
    pub channel_capacity: usize,
    /// Maximum age of a pending outbound chunk while a worker is busy;
    /// idle workers and control barriers flush immediately.
    pub flush_interval: Duration,
    /// In [`ReconfigMode::Epoch`], inject a numbered no-op epoch barrier
    /// wave after every `barrier_interval` externally injected tuples so
    /// barrier alignment is continuously exercised under load. `0` (the
    /// default) disables the periodic waves; reconfiguration waves are
    /// unaffected. Ignored in quiesce mode.
    pub barrier_interval: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            batch_size: 64,
            channel_capacity: 256,
            flush_interval: Duration::from_micros(200),
            barrier_interval: 0,
        }
    }
}

impl RuntimeConfig {
    /// Clamp degenerate values (zero batch size / capacity) to 1.
    fn normalized(mut self) -> Self {
        self.batch_size = self.batch_size.max(1);
        self.channel_capacity = self.channel_capacity.max(1);
        self
    }
}

/// How long a *worker* waits for capacity at a peer before overshooting.
/// Workers must never block indefinitely — two mutually-full workers
/// would deadlock — so this is a pacing delay, not a hard bound.
pub(crate) const WORKER_SEND_PATIENCE: Duration = Duration::from_millis(5);
/// The control plane's one polling interval, in two roles: the sleep
/// quantum of [`send_gated`]'s credit wait (sleep, not spin: the receiver
/// needs the CPU to drain), and the pacing of a coordinator's reply wait
/// ([`Runtime::wait_reply`]) — how long it polls before parking on the
/// reply channel, and how often a parked wait wakes to re-check that the
/// workers it waits on are still alive. A reply itself ends the wait at
/// once.
pub(crate) const PRESSURE_POLL: Duration = Duration::from_micros(100);
/// How long an external [`Injector`] blocks on a full queue before
/// overshooting one batch as a liveness escape (a healthy worker drains
/// long before this; a dead one fails the send, which is then surfaced).
const INJECT_PATIENCE: Duration = Duration::from_secs(1);
/// Delivery attempts (with a fresh routing read each time) before an
/// injected batch is counted as dropped.
const INJECT_ATTEMPTS: usize = 3;
/// Default bound on the inject-side replay log, in tuples. At the default
/// checkpoint cadence (every period) the log only ever holds one period's
/// injections; the bound is a memory backstop, and overflowing it is
/// surfaced as dropped tuples at the next recovery.
pub const DEFAULT_REPLAY_LOG_CAPACITY: usize = 1 << 20;
/// How long [`Runtime::inject_fault`] waits for the victim's thread to
/// actually exit before giving up (a healthy worker reaches its next
/// message boundary long before this).
const FAULT_PATIENCE: Duration = Duration::from_secs(10);

/// The inject-side replay log, shared by the runtime and every
/// [`Injector`] handle: all externally injected tuples since the last
/// checkpoint, in arrival order. Recovery rolls every worker back to the
/// checkpoint and replays this delta, which is what makes a worker crash
/// exactly-once instead of lossy. Disabled (and costless beyond one
/// atomic load per injected chunk) until
/// [`Runtime::configure_recovery`] turns checkpointing on.
struct ReplayLog {
    enabled: AtomicBool,
    inner: Mutex<ReplayLogInner>,
    /// Fences external injections against a concurrent recovery: an
    /// injector's log-append + delivery happens under a read guard, the
    /// whole rollback-and-replay under the write guard. Without it, a
    /// tuple logged before the rollback but delivered after it would be
    /// applied twice (once live, once replayed). Injection holds the
    /// guard only across bounded waits, so the fence cannot deadlock.
    gate: RwLock<()>,
}

/// Past this multiple of the configured capacity the log hard-stops
/// appending and truncates. With checkpointing on, hitting the *soft*
/// capacity forces an early checkpoint at the next period boundary (which
/// clears the log), so this ceiling is only reachable if captures keep
/// being abandoned — a memory backstop, not a normal operating regime.
const REPLAY_LOG_HARD_FACTOR: usize = 8;

#[derive(Default)]
struct ReplayLogInner {
    /// `(inject period, operator, tuple)` — the period tag is what lets
    /// recovery re-measure only the entries belonging to already-closed
    /// periods and discard the re-measured stats of the current one, so
    /// post-recovery period stats are bit-equal to a fault-free run at
    /// any checkpoint interval. Entries are period-monotonic.
    entries: Vec<(u64, OperatorId, Tuple)>,
    capacity: usize,
    /// The period currently being injected into (bumped at each boundary).
    period: u64,
    /// Tuples dropped past the hard ceiling: they cannot be replayed, so
    /// a recovery surfaces them as dropped. Stays 0 whenever checkpoint
    /// captures succeed, because overflow now forces an early capture
    /// instead of truncating.
    truncated: u64,
}

impl ReplayLog {
    fn disabled() -> Self {
        ReplayLog {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(ReplayLogInner::default()),
            gate: RwLock::new(()),
        }
    }

    fn enable(&self, capacity: usize) {
        let mut inner = self.inner.lock();
        inner.capacity = capacity.max(1);
        inner.entries.clear();
        inner.truncated = 0;
        self.enabled.store(true, Ordering::Release);
    }

    fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Append one injected chunk (called before delivery, so a tuple that
    /// ends up in a dead worker's channel is already recoverable). The
    /// configured capacity is *soft*: the runtime checks
    /// [`ReplayLog::over_capacity`] at every period boundary and forces an
    /// early checkpoint (clearing the log) instead of losing the delta —
    /// only the hard ceiling truncates.
    fn record<'a>(&self, op: OperatorId, tuples: impl Iterator<Item = &'a Tuple>) {
        let mut inner = self.inner.lock();
        let hard = inner.capacity.saturating_mul(REPLAY_LOG_HARD_FACTOR);
        let period = inner.period;
        for tuple in tuples {
            if inner.entries.len() < hard {
                inner.entries.push((period, op, tuple.clone()));
            } else {
                inner.truncated += 1;
            }
        }
    }

    /// Whether the log has reached its soft capacity — the runtime's cue
    /// to pull the next checkpoint forward to the current boundary.
    fn over_capacity(&self) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let inner = self.inner.lock();
        inner.entries.len() >= inner.capacity
    }

    /// Entries and overflow count, for replay.
    fn snapshot(&self) -> (Vec<(u64, OperatorId, Tuple)>, u64) {
        let inner = self.inner.lock();
        (inner.entries.clone(), inner.truncated)
    }

    /// The period new injections are tagged with.
    fn current_period(&self) -> u64 {
        self.inner.lock().period
    }

    /// Advance the injection period tag (called at each period boundary).
    fn set_period(&self, period: u64) {
        self.inner.lock().period = period;
    }

    /// Forget everything (a fresh checkpoint covers it now).
    fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.truncated = 0;
    }
}

/// Recovery accounting accumulated between period boundaries, folded into
/// the next [`PeriodRecord`].
#[derive(Debug, Default)]
struct RecoveryAccounting {
    failed_nodes: usize,
    groups_restored: usize,
    tuples_replayed: f64,
    recovery_secs: f64,
}

/// The most chunk buffers a worker keeps in its local pool.
const CHUNK_POOL_LIMIT: usize = 16;

/// A worker's [`Msg::CollectStats`] answer: its node, its period
/// collector, the key-group states it serialized when the collection
/// carried a checkpoint capture, and the spill records it failed to read
/// since its previous answer.
pub(crate) type StatsReply = (NodeId, StatsCollector, Option<Vec<(u32, StateBlob)>>, u64);

/// A worker's answer to one counting round ([`Msg::Barrier`],
/// [`Msg::FlushWindows`]): its node and its activity counter — data
/// chunks it has dequeued plus data chunks it has sent to peers, ever.
pub(crate) type Activity = (NodeId, u64);

pub(crate) type InboxMap = Arc<RwLock<HashMap<NodeId, Inbox>>>;

/// One epoch's migration set: `(group, from, to)` per move. Shared by
/// every worker of the wave through an `Arc`.
pub(crate) type EpochMoves = Arc<Vec<(KeyGroupId, NodeId, NodeId)>>;

/// State shared between the runtime and every [`Injector`] handle for
/// epoch-aligned reconfiguration: the global epoch counter (numbering
/// both reconfiguration waves and the ingestion edge's periodic no-op
/// waves), the injected-tuple counter driving
/// [`RuntimeConfig::barrier_interval`], and the mode flag injectors
/// consult before emitting a wave.
struct EpochShared {
    /// Next epoch number (monotonic, shared by all wave emitters).
    counter: AtomicU64,
    /// Externally injected tuples so far (for the barrier interval).
    injected: AtomicU64,
    /// `true` while the runtime is in [`ReconfigMode::Epoch`].
    epoch_mode: AtomicBool,
}

impl EpochShared {
    fn new() -> Self {
        EpochShared {
            counter: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            epoch_mode: AtomicBool::new(false),
        }
    }
}

/// The live routing table plus a version stamp bumped on every mutation.
/// Workers keep a lock-free local copy and re-clone only when the version
/// moved: reconfigurations are rare, lookups happen per tuple, and a
/// worker that briefly routes against the previous table is harmless —
/// its tuples land on the group's former owner, which forwards them
/// exactly like any other in-flight tuple (state only ever leaves a
/// worker at epoch-barrier alignment, a control step that first syncs
/// the worker's cache to the current version and flips it for the
/// wave's moves).
pub(crate) struct RoutingShared {
    table: RwLock<RoutingTable>,
    version: AtomicU64,
}

/// [`Inbox::send_gated`] to `dest`'s published inbox (cloned out of the
/// map: a wait for credit must not hold its lock), or the message back.
#[allow(clippy::result_large_err)]
pub(crate) fn hand_off(
    senders: &InboxMap,
    dest: NodeId,
    patience: Duration,
    msg: Msg,
) -> Result<(), Msg> {
    let inbox = senders.read().get(&dest).cloned();
    match inbox {
        Some(inbox) => inbox.send_gated(patience, msg),
        None => Err(msg),
    }
}

/// A buffer `node`'s inbox handed back, for the next chunk packed for it.
fn spare_for(senders: &InboxMap, node: NodeId) -> Option<StreamChunk> {
    senders.read().get(&node)?.credit.take_spare()
}

/// Split a routed chunk by the current owner of each row's key group,
/// under one routing read: the re-routing step of a failed injector
/// delivery and of a graveyard drain. Rows move as contiguous group-run
/// splices; a group split over several runs (a merely concatenated
/// chunk) lands in the same destination either way.
fn rebucket(chunk: &StreamChunk, routing: &RoutingShared) -> Vec<(NodeId, StreamChunk)> {
    let routing = routing.read();
    let mut out: Vec<(NodeId, StreamChunk)> = Vec::new();
    let n = chunk.len();
    let mut start = 0;
    while start < n {
        let g = chunk.group_at(start);
        let mut end = start + 1;
        while end < n && chunk.group_at(end) == g {
            end += 1;
        }
        let node = routing.node_of(KeyGroupId::new(g));
        match out.iter_mut().find(|(d, _)| *d == node) {
            Some((_, c)) => c.append_range(chunk, start, end),
            None => {
                let mut c = StreamChunk::new();
                c.append_range(chunk, start, end);
                out.push((node, c));
            }
        }
        start = end;
    }
    out
}

impl RoutingShared {
    pub(crate) fn new(table: RoutingTable) -> Self {
        RoutingShared {
            table: RwLock::new(table),
            version: AtomicU64::new(0),
        }
    }

    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    pub(crate) fn read(&self) -> impl std::ops::Deref<Target = RoutingTable> + '_ {
        self.table.read()
    }

    fn snapshot(&self) -> RoutingTable {
        self.table.read().clone()
    }

    fn node_of(&self, kg: KeyGroupId) -> NodeId {
        self.table.read().node_of(kg)
    }

    /// Re-home every `(group, node)` pair and publish them under *one*
    /// version bump (also when `moves` is empty, which only forces every
    /// worker cache back in sync with the table). A wave's completed
    /// flips must become visible together: a worker whose cache refreshed
    /// between two per-move bumps would undo its own early flips for the
    /// moves not yet published and process their rows into ghost states
    /// on a node the states had already left — silent loss. The same
    /// bump un-flips the caches of an aborted wave's moves, which the
    /// table never flipped.
    fn reroute_all(&self, moves: &[(KeyGroupId, NodeId)]) {
        let mut table = self.table.write();
        for &(kg, to) in moves {
            table.reroute(kg, to);
        }
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Replace the whole table with a broadcast replica (networked
    /// workers only). The table is written *before* the version stamp
    /// moves, so a cache refresh racing the install can never clone the
    /// old table under the new version. Monotone: a stale (lower- or
    /// same-versioned) replica is ignored — after a session resume, a
    /// replayed `ROUTING` frame may arrive *behind* the fresh snapshot
    /// the controller tops the stream up with, and must not regress the
    /// table.
    pub(crate) fn install(&self, version: u64, assignment: Vec<NodeId>) {
        let mut table = self.table.write();
        if version <= self.version.load(Ordering::Acquire) && version != 0 {
            return;
        }
        *table = RoutingTable::from_assignment(assignment);
        self.version.store(version, Ordering::Release);
    }
}

/// How one move of an epoch wave resolved, reported on the wave's
/// `install_done` channel together with the moved group's id (several
/// moves share one channel) — by the destination on success, by the
/// source if the destination is gone.
pub(crate) enum InstallReply {
    /// State shipped, installed at the destination, buffer replayed.
    Installed {
        /// Serialized state size `|σ_k|`.
        state_bytes: usize,
        /// Bytes the state actually occupied on the wire (compression);
        /// equals `state_bytes` in-process.
        wire_bytes: usize,
    },
    /// The destination worker is gone; the state never left the source.
    DestinationGone,
}

/// One serialized key-group state as a message carries it: the bytes,
/// and how many bytes they occupied on the wire (fewer when the link
/// compressed them; `bytes.len()` in-process).
pub(crate) struct StateBlob {
    pub(crate) bytes: Vec<u8>,
    pub(crate) wire_len: usize,
}

impl StateBlob {
    pub(crate) fn new(bytes: Vec<u8>) -> Self {
        StateBlob {
            wire_len: bytes.len(),
            bytes,
        }
    }
}

/// Where a protocol reply goes: an in-process channel, or a correlation
/// id answered over a worker socket. Control messages carry these instead
/// of raw `Sender`s so the same [`Msg`] enum crosses both substrates; see
/// [`crate::transport::wire`] for the wire side (including `send`, which
/// is implemented there next to the reply table).
pub(crate) enum ReplyTo<T> {
    /// In-process: the original crossbeam channel.
    Chan(Sender<T>),
    /// Networked: a correlation id. On the worker daemon `out` is the
    /// socket uplink the encoded reply is written to; on the controller
    /// (which only *relays* such handles between workers, never answers
    /// them) it is `None` and `send` is a no-op.
    Wire { id: u64, out: Option<WireOut> },
}

impl<T> Clone for ReplyTo<T> {
    fn clone(&self) -> Self {
        match self {
            ReplyTo::Chan(tx) => ReplyTo::Chan(tx.clone()),
            ReplyTo::Wire { id, out } => ReplyTo::Wire {
                id: *id,
                out: out.clone(),
            },
        }
    }
}

/// Messages a worker can receive.
// `DataChunk` dwarfs the control variants, but boxing it would put a
// heap allocation on every data hand-off — the chunk pool exists
// precisely to avoid that — and data messages outnumber control
// messages by orders of magnitude.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Msg {
    /// A columnar batch of data tuples with a routed group column; the
    /// operator of each row is derived from its global group id. The only
    /// data message, and the only kind that takes inbox credit. Chunks
    /// on the wire are always fully visible: emitters
    /// splice visible rows only.
    DataChunk(StreamChunk),
    /// Start buffering tuples for a key group (migration destination).
    /// `ack` fires once the buffer exists: the coordinator must not flip
    /// the routing table before then, or the destination could process a
    /// locally-emitted tuple for the group into a fresh "ghost" state
    /// that the later [`Msg::Install`] would silently overwrite (a
    /// same-worker emission never passes through the inbox, so queue
    /// FIFO alone cannot order it behind the buffer window).
    PrepareReceive { kg: KeyGroupId, ack: ReplyTo<()> },
    /// Abort a pending [`Msg::PrepareReceive`]: the migration failed, so
    /// stop buffering and release any tuples caught in the window back
    /// into normal routing (migration destination).
    CancelReceive { kg: KeyGroupId },
    /// Install shipped state and replay the buffer (migration destination).
    Install {
        kg: KeyGroupId,
        op: OperatorId,
        /// The state; its wire length is echoed into the [`InstallReply`]
        /// for migration cost accounting.
        state: StateBlob,
        done: ReplyTo<(KeyGroupId, InstallReply)>,
    },
    /// An epoch barrier from the coordinator (or a no-op wave from the
    /// ingestion edge): flip the local routing cache for `moves`, tell
    /// every other participant this worker reached the barrier, and once
    /// all peers have announced the same epoch — i.e. all pre-barrier
    /// traffic on every inbound edge has drained (channels are FIFO per
    /// sender) — extract and ship the states this worker owns under
    /// `moves`, then acknowledge on `done`.
    EpochBarrier {
        epoch: u64,
        moves: EpochMoves,
        participants: Arc<Vec<NodeId>>,
        install_done: ReplyTo<(KeyGroupId, InstallReply)>,
        done: ReplyTo<NodeId>,
    },
    /// A peer worker announces it has reached epoch `epoch`: everything
    /// it sent before its barrier is already ahead of this message in
    /// our FIFO inbox, so this inbound edge is aligned.
    PeerBarrier { epoch: u64, from: NodeId },
    /// FIFO barrier of a counting round ([`Runtime::quiesce`]): flush
    /// the outbox, then reply with the worker's activity counter.
    Barrier(ReplyTo<Activity>),
    /// Flush operator windows (period end) and the outbox, then reply
    /// like a [`Msg::Barrier`]: the flush is a counting round too.
    FlushWindows { ack: ReplyTo<Activity> },
    /// Snapshot and reset the worker's statistics. With `capture` set
    /// (a checkpoint boundary, data plane quiesced) the reply also
    /// carries the serialized key-group states of a full or an
    /// incremental capture (see `WorkerCtx::snapshot_states`).
    CollectStats {
        capture: Option<CheckpointMode>,
        reply: ReplyTo<StatsReply>,
    },
    /// Return the serialized state of a key group (diagnostics/tests).
    ProbeState {
        kg: KeyGroupId,
        reply: ReplyTo<Option<Vec<u8>>>,
    },
    /// Reset to a checkpoint: drop all states, buffers and period
    /// counters, then install the given serialized states through the
    /// same install path a migration [`Msg::Install`] uses. `spilled`
    /// locates the cold groups whose images stay in the spill segment
    /// `segment` — the worker faults those in lazily on first access
    /// instead of installing them eagerly, which keeps rollback cost
    /// sublinear in total state. The inject-side log replays the
    /// discarded delta afterwards.
    Rollback {
        states: Vec<(u32, StateBlob)>,
        spilled: Vec<SpillExtent>,
        segment: Option<String>,
        ack: ReplyTo<()>,
    },
    /// Drop the in-memory copy of cold key groups whose checkpoint image
    /// now lives at `extents` of the spill segment `segment` (the
    /// coordinator's spill tier). The worker keeps any group it has
    /// written since the last capture (its record would be stale) and
    /// faults dropped groups back in from their records on next access.
    /// Carries every spilled group this worker owns, so a missed message
    /// is healed by the next one.
    SpillGroups {
        segment: String,
        extents: Vec<SpillExtent>,
    },
    /// Abrupt worker death (fault injection): exit immediately, dropping
    /// all per-group state, without draining the inbox tail or flushing
    /// the outbox — a crash, not a shutdown.
    Crash,
    /// Stop the worker loop.
    Shutdown,
    /// A routing-table replica refresh for networked workers: the
    /// in-process worker loop ignores it (its cache already shares the
    /// authoritative table by `Arc`); a transport stub turns it into a
    /// `ROUTING` frame for its daemon.
    RoutingUpdate {
        version: u64,
        assignment: Vec<NodeId>,
    },
}

/// What a worker remembers about its own pending [`Msg::EpochBarrier`]
/// between receiving it (phase 1: flip the cache, announce to peers) and
/// alignment (phase 2: extract owned moving state, acknowledge).
struct EpochWave {
    moves: EpochMoves,
    participants: Arc<Vec<NodeId>>,
    install_done: ReplyTo<(KeyGroupId, InstallReply)>,
    done: ReplyTo<NodeId>,
}

/// Per-epoch alignment progress. `wave` is `None` while only peer
/// announcements have arrived (a peer can reach its barrier before the
/// coordinator's own barrier message lands here — channels are FIFO per
/// sender, not globally).
#[derive(Default)]
struct EpochProgress {
    wave: Option<EpochWave>,
    peers_seen: Vec<NodeId>,
}

/// One operator's emissions while a chunk is routed: the rows its owned
/// runs emitted, in run order, and beside them the key group each row
/// came from (what comm accounting charges the flow to).
#[derive(Default)]
struct EmitBuf {
    rows: StreamChunk,
    from: Vec<u32>,
}

pub(crate) struct WorkerCtx {
    node: NodeId,
    topology: Arc<Topology>,
    routing: Arc<RoutingShared>,
    /// Lock-free local copy of the routing table, refreshed when the
    /// shared version moves (see [`RoutingShared`]).
    routing_cache: RoutingTable,
    routing_version: u64,
    senders: InboxMap,
    cfg: RuntimeConfig,
    inbox: InboxRx,
    /// Per-key-group operator state, keyed by global key-group id.
    /// Fast-hashed: looked up once per processed tuple.
    states: FastMap<u32, StateBox>,
    /// Buffers for key groups mid-migration (destination side): the rows
    /// caught in the receive window, in arrival order, group column set.
    buffers: FastMap<u32, StreamChunk>,
    /// In-flight epoch barrier alignment, keyed by epoch number.
    epochs: FastMap<u64, EpochProgress>,
    /// Pending outbound chunk per destination worker.
    chunk_outbox: FastMap<NodeId, StreamChunk>,
    /// When the oldest pending outbound tuple was enqueued.
    oldest_pending: Option<Instant>,
    /// Recycled [`StreamChunk`] allocations (next-level local chunks,
    /// pending outbound chunks), at most [`CHUNK_POOL_LIMIT`]; the
    /// rest go back to this worker's inbox for its producers.
    chunk_pool: Vec<StreamChunk>,
    /// Counting-sort scratch for bucketing a chunk by group: an inbound
    /// chunk during its run loop, then its emissions once per downstream
    /// operator.
    sorter: ChunkSorter,
    /// What the owned runs of the chunk being routed emitted, one buffer
    /// per emitting operator (indexed by operator id), dispatched once
    /// after the run loop.
    emitted: Vec<EmitBuf>,
    stats: StatsCollector,
    /// Data chunks dequeued plus data chunks sent to peers: the monotonic
    /// counter a counting round ([`Runtime::quiesce`]) compares.
    activity: u64,
    /// Key groups written since the last checkpoint capture — what an
    /// incremental capture ([`Msg::CollectStats`]) serializes. Populated on every
    /// state-mutating path (process, install, mutating period-end flush)
    /// and drained by captures; costs one fast-hash insert per write.
    dirty: FastMap<u32, ()>,
    /// Key groups whose newest checkpoint image lives on the spill tier
    /// instead of in this worker's memory, with where their records sit.
    /// A data tuple, probe or extract for one of these faults the state
    /// back in from the segment first.
    spilled: FastMap<u32, SpillExtent>,
    /// The spill segment the newest [`Msg::SpillGroups`] or
    /// [`Msg::Rollback`] named, opened on the first fault-in.
    segment: SegmentReader,
    /// Spill records that failed to read (short, or failing their header
    /// check) since the last [`Msg::CollectStats`] reported them.
    spill_failures: u64,
    /// Set by [`Msg::Crash`]: die without the graceful-shutdown drain.
    crashed: bool,
    /// Set on a networked worker daemon: the socket uplink every
    /// outbound peer message is forwarded through (the controller is the
    /// star hub). `None` in-process, where `senders` holds real channels.
    uplink: Option<WireOut>,
}

impl WorkerCtx {
    /// Assemble a worker loop from a transport spawn request. `uplink`
    /// distinguishes the in-process worker (`None`: peers are reached
    /// through `senders`) from a networked daemon (`Some`: peers are
    /// reached by forwarding frames up the controller socket).
    pub(crate) fn from_spawn(spawn: WorkerSpawn, uplink: Option<WireOut>) -> WorkerCtx {
        let WorkerSpawn {
            node,
            inbox,
            topology,
            routing,
            senders,
            cfg,
            ..
        } = spawn;
        // Version before table: if a reconfiguration lands between the
        // two reads the worker refreshes once more on its first lookup,
        // which is merely redundant — the reverse order could pin a stale
        // table under a current version.
        let routing_version = routing.version();
        let routing_cache = routing.snapshot();
        let emitted = topology
            .operators()
            .iter()
            .map(|_| EmitBuf::default())
            .collect();
        WorkerCtx {
            node,
            topology,
            routing,
            routing_cache,
            routing_version,
            senders,
            cfg,
            inbox,
            states: FastMap::default(),
            buffers: FastMap::default(),
            epochs: FastMap::default(),
            chunk_outbox: FastMap::default(),
            oldest_pending: None,
            chunk_pool: Vec::new(),
            sorter: ChunkSorter::default(),
            emitted,
            stats: StatsCollector::new(),
            activity: 0,
            dirty: FastMap::default(),
            spilled: FastMap::default(),
            segment: SegmentReader::default(),
            spill_failures: 0,
            crashed: false,
            uplink,
        }
    }
    /// The worker loop. Returns the inbox receiver so the coordinator
    /// can park it in the graveyard: a sender that cloned this worker's
    /// channel before it was unpublished may complete a send at any
    /// later moment (its bounded backpressure wait can outlive the
    /// drain below), and a batch that lands after the final `try_next`
    /// must not be destroyed with the channel — the graveyard is
    /// re-drained at every settle/period boundary instead.
    pub(crate) fn run(mut self) -> InboxRx {
        // The topology is immutable for the job's life: one clone here
        // lets every message borrow it, so the data path never writes the
        // shared refcount.
        let topology = Arc::clone(&self.topology);
        loop {
            // Drain without blocking; flush the outbox before sleeping so
            // an idle worker never sits on a partial batch.
            let msg = match self.inbox.try_next() {
                Ok(msg) => msg,
                Err(TryRecvError::Empty) => {
                    self.flush_outbox();
                    match self.inbox.next() {
                        Some(msg) => msg,
                        None => break,
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            };
            if !self.handle(&topology, msg) {
                break;
            }
            // Busy stream: cap the age of pending batches.
            if let Some(t0) = self.oldest_pending {
                if t0.elapsed() >= self.cfg.flush_interval {
                    self.flush_outbox();
                }
            }
        }
        // A crash dies here: no tail drain, no flush — in-flight work is
        // the recovery protocol's problem, exactly as with a real fault.
        if self.crashed {
            return self.inbox;
        }
        // Drain the inbox tail: a concurrent injector racing a scale-in
        // can land a chunk *behind* the Shutdown message (its Sender was
        // cloned before the coordinator unpublished it). Those tuples
        // must re-enter routing — their groups were drained off this
        // node, so on_chunk forwards them — not be destroyed with the
        // channel.
        while let Ok(msg) = self.inbox.try_next() {
            if let Msg::DataChunk(chunk) = msg {
                self.stats.record_ingest(chunk.visible_len() as f64);
                self.on_chunk(&topology, chunk);
            }
        }
        // Best-effort flush so a shutdown never strands coalesced tuples.
        self.flush_outbox();
        self.inbox
    }

    /// Handle one message; returns `false` on shutdown. Every control
    /// message flushes the outbox first, so the data plane it observes is
    /// exactly what an unbatched engine would have already sent.
    fn handle(&mut self, topology: &Topology, msg: Msg) -> bool {
        // A crash must not flush or acknowledge anything — it is the one
        // message that models losing the worker mid-flight.
        if matches!(msg, Msg::Crash) {
            self.crashed = true;
            return false;
        }
        if !matches!(msg, Msg::DataChunk(_)) {
            self.flush_outbox();
        }
        match msg {
            Msg::DataChunk(chunk) => {
                // A daemon's dequeue is what reopens its sender's window.
                if let Some(up) = &self.uplink {
                    up.ack_if_due();
                }
                self.activity += 1;
                self.stats.record_ingest(chunk.visible_len() as f64);
                self.on_chunk(topology, chunk);
            }
            Msg::PrepareReceive { kg, ack } => {
                self.buffers.entry(kg.raw()).or_default();
                let _ = ack.send(());
            }
            Msg::CancelReceive { kg } => {
                // Re-run anything buffered during the aborted window;
                // with the buffer gone, on_chunk forwards the rows to the
                // group's (restored) owner instead of swallowing them.
                if let Some(buffered) = self.buffers.remove(&kg.raw()) {
                    self.on_chunk(topology, buffered);
                }
            }
            Msg::Install {
                kg,
                op,
                state,
                done,
            } => {
                self.install_state(kg, op, &state.bytes);
                if let Some(buffered) = self.buffers.remove(&kg.raw()) {
                    self.on_chunk(topology, buffered);
                }
                let _ = done.send((
                    kg,
                    InstallReply::Installed {
                        state_bytes: state.bytes.len(),
                        wire_bytes: state.wire_len,
                    },
                ));
            }
            Msg::EpochBarrier {
                epoch,
                moves,
                participants,
                install_done,
                done,
            } => {
                self.on_epoch_barrier(epoch, moves, participants, install_done, done);
            }
            Msg::PeerBarrier { epoch, from } => {
                self.epochs.entry(epoch).or_default().peers_seen.push(from);
                self.check_epoch_alignment(epoch);
            }
            Msg::Barrier(ack) => {
                let _ = ack.send((self.node, self.activity));
            }
            Msg::FlushWindows { ack } => {
                self.flush_windows(topology);
                // What the windows emitted across workers is sent, and
                // counted, before the ack.
                self.flush_outbox();
                let _ = ack.send((self.node, self.activity));
            }
            Msg::CollectStats { capture, reply } => {
                let group_ids: Vec<u32> = self.states.keys().copied().collect();
                for g in group_ids {
                    let kg = KeyGroupId::new(g);
                    let logic = &topology.operator(topology.operator_of_group(kg)).logic;
                    if let Some(state) = self.states.get(&g) {
                        self.stats
                            .set_state_bytes(kg, logic.state_size(state) as f64);
                    }
                }
                let snapshot = self.stats.clone();
                self.stats.reset();
                let states = capture.map(|mode| self.snapshot_states(mode));
                let failures = std::mem::take(&mut self.spill_failures);
                let _ = reply.send((self.node, snapshot, states, failures));
            }
            Msg::ProbeState { kg, reply } => {
                let op = topology.operator_of_group(kg);
                self.ensure_resident(kg, op);
                let logic = &topology.operator(op).logic;
                let bytes = self.states.get(&kg.raw()).map(|s| logic.serialize_state(s));
                let _ = reply.send(bytes);
            }
            Msg::Rollback {
                states,
                spilled,
                segment,
                ack,
            } => {
                // Back to the checkpoint: every post-checkpoint state,
                // buffered tuple and period counter on this worker is
                // discarded (the inject-side log replays the delta), then
                // the checkpointed states come back through the same
                // install path a migration uses.
                self.states.clear();
                self.buffers.clear();
                self.stats = StatsCollector::new();
                // Any epoch wave caught by the fault is aborted by the
                // coordinator; its bookkeeping must not survive the
                // rollback. The cache is re-synced to the authoritative
                // table (version first, same order as worker spawn) so
                // phase-1 flips of an aborted wave are undone.
                self.epochs.clear();
                self.routing_version = self.routing.version();
                self.routing_cache = self.routing.snapshot();
                for (raw, state) in states {
                    let kg = KeyGroupId::new(raw);
                    let op = topology.operator_of_group(kg);
                    self.install_state(kg, op, &state.bytes);
                }
                // Cold groups are not installed eagerly: the worker only
                // remembers where they live on the spill tier and faults
                // each one in from its record on first access.
                if let Some(segment) = segment {
                    self.segment.point_at(Path::new(&segment));
                }
                self.spilled.clear();
                for ext in spilled {
                    self.spilled.insert(ext.group, ext);
                }
                // Post-rollback content equals the checkpoint image by
                // construction, so nothing is dirty relative to it.
                self.dirty.clear();
                let _ = ack.send(());
            }
            Msg::SpillGroups { segment, extents } => {
                self.segment.point_at(Path::new(&segment));
                // Full-set semantics: the worker's spill view is replaced
                // wholesale, so a previously missed message heals here.
                self.spilled.clear();
                for ext in extents {
                    // Dirty guard: this worker's copy is newer than the
                    // spill record (written at the last capture), so the
                    // in-memory state must survive until the next capture
                    // picks it up and the coordinator re-spills it.
                    if self.dirty.contains_key(&ext.group) {
                        continue;
                    }
                    self.states.remove(&ext.group);
                    self.spilled.insert(ext.group, ext);
                }
            }
            // Intercepted before the outbox flush above.
            Msg::Crash => return false,
            Msg::Shutdown => return false,
            // Replica refreshes are consumed by transport stubs; the
            // in-process worker's cache already follows the shared
            // table's version stamp.
            Msg::RoutingUpdate { .. } => {}
        }
        true
    }

    /// The shared install path: rebuild a key group's state from
    /// serialized bytes — migration [`Msg::Install`] and checkpoint
    /// [`Msg::Rollback`] both restore state through here. An install
    /// marks the group dirty: from the checkpoint store's point of view a
    /// migrated-in group changed homes, and over-capturing an unchanged
    /// blob once is cheap while missing it would lose state (the
    /// [`Msg::Rollback`] handler clears the dirty set afterwards, since a
    /// rollback restores exactly the store's own image).
    fn install_state(&mut self, kg: KeyGroupId, op: OperatorId, bytes: &[u8]) {
        let state = self.topology.operator(op).logic.deserialize_state(bytes);
        self.states.insert(kg.raw(), state);
        self.dirty.insert(kg.raw(), ());
        self.spilled.remove(&kg.raw());
    }

    /// Fault a spilled key group back into memory from its segment
    /// record before anything touches it. A no-op for resident or
    /// never-spilled groups; if the record cannot be read or fails its
    /// header check, the failure is counted for the period record, the
    /// mark is dropped and the caller's normal missing-state path creates
    /// a fresh state.
    fn ensure_resident(&mut self, kg: KeyGroupId, op: OperatorId) {
        let g = kg.raw();
        if self.states.contains_key(&g) {
            return;
        }
        let Some(ext) = self.spilled.remove(&g) else {
            return;
        };
        if let Some(bytes) = self.read_spilled(ext) {
            let state = self.topology.operator(op).logic.deserialize_state(&bytes);
            self.states.insert(g, state);
            // Faulting in is a read, not a write: the group stays clean
            // (its checkpoint image on disk is still current) until a
            // tuple actually mutates it.
        }
    }

    /// One positioned, header-checked read of a spill record; a failure
    /// is counted, never silent.
    fn read_spilled(&mut self, ext: SpillExtent) -> Option<Vec<u8>> {
        let read = self.segment.read(ext);
        self.spill_failures += u64::from(read.is_err());
        read.ok()
    }

    /// Serialize `kg`'s state and ship it to `dest` as a [`Msg::Install`];
    /// replies `DestinationGone` on `done` itself if the destination is
    /// unreachable (the state never leaves this worker then). Runs at
    /// epoch-barrier alignment, for every move this worker is the source
    /// of.
    fn extract_and_ship(
        &mut self,
        kg: KeyGroupId,
        dest: NodeId,
        done: ReplyTo<(KeyGroupId, InstallReply)>,
    ) {
        let op = self.topology.operator_of_group(kg);
        // A spilled group must come back into memory before it can ship:
        // its newest image is its file, not the empty default state.
        self.ensure_resident(kg, op);
        let logic = Arc::clone(&self.topology.operator(op).logic);
        let state = self.states.remove(&kg.raw());
        self.dirty.remove(&kg.raw());
        self.spilled.remove(&kg.raw());
        // The state leaves this worker: drop the stale size so
        // the merged period stats only see the destination's
        // fresh measurement (stats.reset() keeps state sizes).
        self.stats.clear_state_bytes(kg);
        let bytes = match &state {
            Some(state) => logic.serialize_state(state),
            None => logic.serialize_state(&logic.new_state()),
        };
        let msg = Msg::Install {
            kg,
            op,
            state: StateBlob::new(bytes),
            done,
        };
        if let Err(Msg::Install { done, .. }) = self.send_control(dest, msg) {
            // The destination is unreachable (or, networked, this
            // worker's own socket broke, and the worker dies with it):
            // the state never left this node, so keep serving it here
            // and tell the coordinator explicitly.
            if let Some(state) = state {
                self.states.insert(kg.raw(), state);
            }
            let _ = done.send((kg, InstallReply::DestinationGone));
        }
    }

    /// Send a control message to peer `dest` — up the socket for the
    /// controller hub to relay when networked, over the peer's channel
    /// in-process — returning it if it cannot be delivered.
    // The large `Err` is the point, as for `Inbox::send_gated`.
    #[allow(clippy::result_large_err)]
    fn send_control(&self, dest: NodeId, msg: Msg) -> Result<(), Msg> {
        if let Some(up) = &self.uplink {
            return up.forward(dest, &msg).map_err(|_| msg);
        }
        match self.senders.read().get(&dest) {
            Some(inbox) => inbox.send(msg),
            None => Err(msg),
        }
    }

    /// Phase 1 of an epoch barrier: sync the routing cache to the
    /// authoritative version if it moved (so the flips below cannot be
    /// clobbered by a later refresh), flip the cache for every move of
    /// the wave *without* touching the version stamp (the authoritative
    /// table flips only on coordinator success), announce the barrier to
    /// every other participant, and check alignment (a single-participant
    /// wave aligns immediately).
    fn on_epoch_barrier(
        &mut self,
        epoch: u64,
        moves: EpochMoves,
        participants: Arc<Vec<NodeId>>,
        install_done: ReplyTo<(KeyGroupId, InstallReply)>,
        done: ReplyTo<NodeId>,
    ) {
        let v = self.routing.version();
        if v != self.routing_version {
            self.routing_cache = self.routing.snapshot();
            self.routing_version = v;
        }
        for &(kg, _, to) in moves.iter() {
            self.routing_cache.reroute(kg, to);
        }
        // A dead peer's (or, networked, a dead hub's) failure is fine:
        // the coordinator detects the corpse and aborts the wave.
        for &peer in participants.iter().filter(|&&p| p != self.node) {
            let from = self.node;
            let _ = self.send_control(peer, Msg::PeerBarrier { epoch, from });
        }
        let entry = self.epochs.entry(epoch).or_default();
        entry.wave = Some(EpochWave {
            moves,
            participants,
            install_done,
            done,
        });
        self.check_epoch_alignment(epoch);
    }

    /// Phase 2 gate: once every other participant of `epoch` has
    /// announced its barrier, every pre-barrier batch on every inbound
    /// edge has already been dequeued (FIFO per sender), so it is safe to
    /// extract the moving states this worker owns and acknowledge the
    /// wave. Tuples for moved groups arriving later are forwarded by the
    /// flipped cache like any in-flight tuple.
    fn check_epoch_alignment(&mut self, epoch: u64) {
        let Some(progress) = self.epochs.get(&epoch) else {
            return;
        };
        let Some(wave) = &progress.wave else {
            return;
        };
        let others = wave
            .participants
            .iter()
            .filter(|&&p| p != self.node)
            .count();
        let seen = progress
            .peers_seen
            .iter()
            .filter(|p| wave.participants.contains(p))
            .count();
        if seen < others {
            return;
        }
        let progress = self.epochs.remove(&epoch).expect("checked above");
        let wave = progress.wave.expect("checked above");
        for &(kg, from, to) in wave.moves.iter() {
            if from == self.node {
                self.extract_and_ship(kg, to, wave.install_done.clone());
            }
        }
        let _ = wave.done.send(self.node);
    }

    /// Serialize local key-group state for a checkpoint capture, sorted
    /// by group id so a checkpoint's byte layout is deterministic. An
    /// incremental capture serializes only groups in the dirty set
    /// (spilled groups are never dirty — dropping one requires it clean);
    /// a full capture additionally reads back the records of
    /// worker-spilled groups so the returned image is complete (a record
    /// that fails its read is counted and left out, and the store keeps
    /// its entry). Both variants drain the dirty set: the store now
    /// covers those writes.
    fn snapshot_states(&mut self, mode: CheckpointMode) -> Vec<(u32, StateBlob)> {
        let delta_only = mode == CheckpointMode::Incremental;
        let mut ids: Vec<u32> = if delta_only {
            self.dirty
                .keys()
                .filter(|g| self.states.contains_key(*g))
                .copied()
                .collect()
        } else {
            self.states.keys().copied().collect()
        };
        ids.sort_unstable();
        let mut snap = Vec::with_capacity(ids.len());
        for g in ids {
            let kg = KeyGroupId::new(g);
            let op = self.topology.operator_of_group(kg);
            let logic = Arc::clone(&self.topology.operator(op).logic);
            if let Some(state) = self.states.get(&g) {
                snap.push((g, StateBlob::new(logic.serialize_state(state))));
            }
        }
        if !delta_only && !self.spilled.is_empty() {
            let mut cold: Vec<SpillExtent> = self
                .spilled
                .values()
                .filter(|ext| !self.states.contains_key(&ext.group))
                .copied()
                .collect();
            cold.sort_unstable_by_key(|ext| ext.group);
            for ext in cold {
                if let Some(bytes) = self.read_spilled(ext) {
                    snap.push((ext.group, StateBlob::new(bytes)));
                }
            }
            snap.sort_unstable_by_key(|(g, _)| *g);
        }
        self.dirty.clear();
        snap
    }

    /// Current owner of a key group, via the version-checked local copy
    /// of the routing table (one atomic load per lookup, no lock).
    fn owner_of(&mut self, kg: KeyGroupId) -> NodeId {
        let v = self.routing.version();
        if v != self.routing_version {
            self.routing_cache = self.routing.snapshot();
            self.routing_version = v;
        }
        self.routing_cache.node_of(kg)
    }

    /// Period end: flush every owned group's window
    /// ([`crate::operator::Operator::on_period_end`]) and send what it
    /// emitted down the same dispatch as ordinary emissions — a one-group
    /// batch per flushing group, whose locally owned rows are processed
    /// before the next group flushes (chained windows depend on it).
    fn flush_windows(&mut self, topology: &Topology) {
        let group_ids: Vec<u32> = self.states.keys().copied().collect();
        for g in group_ids {
            let kg = KeyGroupId::new(g);
            // Only flush groups this worker still owns.
            if self.owner_of(kg) != self.node {
                continue;
            }
            let op = topology.operator_of_group(kg);
            let logic = &topology.operator(op).logic;
            let Some(state) = self.states.get_mut(&g) else {
                continue;
            };
            let mut out = Emissions::new();
            logic.on_period_end(state, &mut out);
            if logic.period_end_mutates() {
                self.dirty.insert(g, ());
            }
            if out.is_empty() {
                continue;
            }
            let buf = &mut self.emitted[op.index()];
            for t in out.drain() {
                buf.rows.push_tuple(t);
            }
            buf.from.resize(buf.rows.len(), g);
            if let Some(local) = self.dispatch_emitted(topology) {
                self.on_chunk(topology, local);
            }
        }
    }

    /// Flush every pending outbound chunk.
    fn flush_outbox(&mut self) {
        self.oldest_pending = None;
        // Drained out of place, so the map keeps its table for the next
        // batch and no key list is collected per flush.
        let mut outbox = std::mem::take(&mut self.chunk_outbox);
        for (dest, chunk) in outbox.drain() {
            if !chunk.is_empty() {
                self.send_chunk(dest, chunk);
            }
        }
        self.chunk_outbox = outbox;
    }

    /// Take a cleared chunk allocation from the pool, else one this
    /// worker's pool overflowed into its inbox's spare list (or a fresh
    /// one): a worker whose scratch outgrows the pool reuses its own
    /// excess instead of growing the spare list with it.
    fn take_chunk(&mut self) -> StreamChunk {
        match self.chunk_pool.pop() {
            Some(mut c) => {
                c.clear();
                c
            }
            None => self.inbox.credit.take_spare().unwrap_or_default(),
        }
    }

    /// Return a chunk's allocation to the pool for reuse; once the pool
    /// is full, to this worker's inbox, whose producers pack their next
    /// chunks for this worker into it.
    fn recycle_chunk(&mut self, chunk: StreamChunk) {
        if self.chunk_pool.len() < CHUNK_POOL_LIMIT {
            self.chunk_pool.push(chunk);
        } else {
            self.inbox.credit.give_back(chunk);
        }
    }

    /// Entry point for a chunk arriving at this worker — an inbound
    /// [`Msg::DataChunk`] or a migration buffer being replayed: route and
    /// process the chunk, then each level of local emissions in turn.
    fn on_chunk(&mut self, topology: &Topology, chunk: StreamChunk) {
        let mut next = Some(chunk);
        while let Some(c) = next {
            next = self.route_chunk(topology, c);
        }
    }

    /// Bucket a routed chunk by its group column (one stable counting
    /// pass yielding a selection vector — no sorted copy is ever
    /// materialized, and even the pass is skipped when the chunk is
    /// already in group order), then handle each group run as a unit:
    /// groups buffering for a migration capture their rows, groups owned
    /// elsewhere are spliced into the outbox, and owned runs get one
    /// virtual call each. What the owned runs emitted is dispatched once
    /// afterwards; returns its locally owned rows, the next level.
    fn route_chunk(&mut self, topology: &Topology, chunk: StreamChunk) -> Option<StreamChunk> {
        if chunk.is_empty() {
            self.recycle_chunk(chunk);
            return None;
        }
        let num_groups = topology.num_key_groups() as usize;
        let mut sorter = std::mem::take(&mut self.sorter);
        let permuted = sorter.bucket(&chunk, num_groups);
        for &(g, start, end) in sorter.runs() {
            let kg = KeyGroupId::new(g);
            let (start, end) = (start as usize, end as usize);
            let rows = if permuted {
                ChunkSlice::selected(&chunk, &sorter.perm()[start..end])
            } else {
                ChunkSlice::new(&chunk, start, end)
            };
            // Buffering during migration takes priority.
            if !self.buffers.is_empty() {
                if let Some(buf) = self.buffers.get_mut(&kg.raw()) {
                    buf.append_slice(&rows);
                    continue;
                }
            }
            let owner = self.owner_of(kg);
            if owner != self.node {
                // In-flight rows for a group that moved away: forward.
                self.splice_out(owner, &rows);
            } else {
                self.process_run(topology, kg, &rows);
            }
        }
        self.sorter = sorter;
        self.recycle_chunk(chunk);
        self.dispatch_emitted(topology)
    }

    /// Process one owned key-group run with a single
    /// [`crate::operator::Operator::process_chunk`] call, appending what
    /// it emitted to its operator's emissions buffer.
    fn process_run(&mut self, topology: &Topology, kg: KeyGroupId, rows: &ChunkSlice<'_>) {
        let op = topology.operator_of_group(kg);
        self.ensure_resident(kg, op);
        let logic = &topology.operator(op).logic;
        let state = self
            .states
            .entry(kg.raw())
            .or_insert_with(|| logic.new_state());
        let buf = &mut self.emitted[op.index()];
        let mut out = ChunkEmissions::appending(std::mem::take(&mut buf.rows));
        logic.process_chunk(rows, state, &mut out);
        buf.rows = out.into_chunk();
        buf.from.resize(buf.rows.len(), kg.raw());
        self.dirty.insert(kg.raw(), ());
        self.stats
            .record_processed(kg, rows.len() as f64, logic.cost_per_tuple());
    }

    /// Route every emissions buffer to each downstream operator of its
    /// emitter: one vectorized group assignment and one bucket pass per
    /// (emitter, downstream operator), comm recorded per contiguous
    /// (source, destination) group segment, cross-node runs spliced into
    /// the outbox. Returns the locally owned rows as one chunk.
    fn dispatch_emitted(&mut self, topology: &Topology) -> Option<StreamChunk> {
        let num_groups = topology.num_key_groups() as usize;
        let mut sorter = std::mem::take(&mut self.sorter);
        let mut local: Option<StreamChunk> = None;
        for op in 0..self.emitted.len() {
            if self.emitted[op].rows.is_empty() {
                continue;
            }
            let mut buf = std::mem::take(&mut self.emitted[op]);
            for &dop in topology.downstream(OperatorId::new(op as u32)) {
                buf.rows.assign_groups(dop, topology);
                let permuted = sorter.bucket(&buf.rows, num_groups);
                for &(g, start, end) in sorter.runs() {
                    let dkg = KeyGroupId::new(g);
                    let (start, end) = (start as usize, end as usize);
                    let rows = if permuted {
                        ChunkSlice::selected(&buf.rows, &sorter.perm()[start..end])
                    } else {
                        ChunkSlice::new(&buf.rows, start, end)
                    };
                    let dest = self.owner_of(dkg);
                    let crossed = dest != self.node;
                    let mut seg = 0;
                    while seg < rows.len() {
                        let src = buf.from[rows.row(seg)];
                        let mut end = seg + 1;
                        while end < rows.len() && buf.from[rows.row(end)] == src {
                            end += 1;
                        }
                        let n = (end - seg) as f64;
                        self.stats
                            .record_comm(KeyGroupId::new(src), dkg, n, crossed);
                        seg = end;
                    }
                    if crossed {
                        self.splice_out(dest, &rows);
                    } else {
                        if local.is_none() {
                            local = Some(self.take_chunk());
                        }
                        local.as_mut().expect("just filled").append_slice(&rows);
                    }
                }
            }
            buf.rows.clear();
            buf.from.clear();
            self.emitted[op] = buf;
        }
        self.sorter = sorter;
        local
    }

    /// Splice a run into the pending outbound chunk for `dest`; hand the
    /// chunk off once it reaches the batch size, or first if the run
    /// would take it past the batch size — so a chunk outgrows its
    /// buffer only when a single run does, and `dest` can hand the
    /// buffer back. A new pending chunk takes a buffer `dest`'s inbox
    /// handed back, else one of this worker's own.
    fn splice_out(&mut self, dest: NodeId, rows: &ChunkSlice<'_>) {
        let batch_size = self.cfg.batch_size;
        if let Some(out) = self.chunk_outbox.get(&dest) {
            if !out.is_empty() && out.len() + rows.len() > batch_size {
                let out = self.chunk_outbox.remove(&dest).expect("just seen");
                self.send_chunk(dest, out);
            }
        }
        if !self.chunk_outbox.contains_key(&dest) {
            let spare = spare_for(&self.senders, dest);
            let chunk = spare.unwrap_or_else(|| self.take_chunk());
            self.chunk_outbox.insert(dest, chunk);
        }
        let out = self.chunk_outbox.get_mut(&dest).expect("just filled");
        out.append_slice(rows);
        let full = out.len() >= batch_size;
        self.oldest_pending.get_or_insert_with(Instant::now);
        if full {
            if let Some(c) = self.chunk_outbox.remove(&dest) {
                self.send_chunk(dest, c);
            }
        }
    }

    /// Hand a chunk to a peer worker, waiting a bounded interval for
    /// queue capacity. Workers never block indefinitely (two mutually
    /// full workers would deadlock); after `WORKER_SEND_PATIENCE` the
    /// chunk overshoots the capacity and the overflow is counted in the
    /// pressure signal. Undeliverable rows are counted as dropped, never
    /// silently discarded.
    fn send_chunk(&mut self, dest: NodeId, chunk: StreamChunk) {
        let n = chunk.visible_len() as f64;
        self.activity += 1;
        if let Some(up) = &self.uplink {
            let msg = Msg::DataChunk(chunk);
            match up.forward(dest, &msg) {
                Ok(()) => self.stats.record_emit(n),
                Err(_) => self.stats.record_dropped(n),
            }
            if let Msg::DataChunk(chunk) = msg {
                self.recycle_chunk(chunk);
            }
            return;
        }
        match hand_off(
            &self.senders,
            dest,
            WORKER_SEND_PATIENCE,
            Msg::DataChunk(chunk),
        ) {
            Ok(()) => self.stats.record_emit(n),
            Err(_) => self.stats.record_dropped(n),
        }
    }
}

thread_local! {
    /// [`Injector::inject_chunks`]'s bucket and staging vectors, reused by
    /// the calls on this thread; taken while in use, so a re-entered
    /// `inject` gets fresh ones.
    static INJECT_SCRATCH: std::cell::Cell<(Vec<(NodeId, StreamChunk)>, Vec<Tuple>)> =
        const { std::cell::Cell::new((Vec::new(), Vec::new())) };
}

/// A cloneable, thread-safe handle for injecting external tuples into a
/// running [`Runtime`] — the ingestion edge of the data plane. Obtained
/// via [`Runtime::injector`]; multiple producer threads may inject
/// concurrently.
///
/// Injection batches tuples per destination worker and *blocks* while a
/// destination's queue is at [`RuntimeConfig::channel_capacity`]: this is
/// where backpressure reaches the producer. Tuples whose destination
/// worker is gone are retried against a fresh routing read (the group may
/// have migrated) and, failing that, counted in
/// [`PeriodStats::dropped_tuples`] — never silently discarded.
#[derive(Clone)]
pub struct Injector {
    topology: Arc<Topology>,
    routing: Arc<RoutingShared>,
    senders: InboxMap,
    dropped: Arc<AtomicU64>,
    log: Arc<ReplayLog>,
    epoch: Arc<EpochShared>,
    cfg: RuntimeConfig,
}

impl Injector {
    /// Inject external tuples into a source operator. Tuples are routed
    /// by key to the hosting worker of their key group, coalesced into
    /// batches of [`RuntimeConfig::batch_size`]. Blocks while destination
    /// queues are at capacity.
    ///
    /// Tuples are bucketed in chunks under one routing read each, and the
    /// lock is always released before a (potentially blocking) delivery —
    /// backpressure never stalls a concurrent reconfiguration. A tuple
    /// routed against a just-outdated table is forwarded by its receiving
    /// worker, so chunked reads cannot lose anything.
    pub fn inject(&self, op: OperatorId, tuples: impl IntoIterator<Item = Tuple>) {
        // With recovery enabled, fence this injection against a
        // concurrent rollback-and-replay: a tuple logged before the
        // rollback but delivered after it would otherwise count twice.
        let _gate = self.log.is_enabled().then(|| self.log.gate.read());
        let n = self.inject_chunks(op, tuples, true);
        self.maybe_barrier(n);
    }

    /// In epoch mode with [`RuntimeConfig::barrier_interval`] set, emit a
    /// numbered no-op barrier wave whenever the global injected-tuple
    /// counter crosses an interval boundary — barrier alignment then runs
    /// continuously under load, not only when a plan migrates. The wave
    /// moves nothing and nobody collects its acknowledgements (the reply
    /// receivers are dropped immediately; worker sends fail silently).
    fn maybe_barrier(&self, n: usize) {
        if n == 0
            || self.cfg.barrier_interval == 0
            || !self.epoch.epoch_mode.load(Ordering::Acquire)
        {
            return;
        }
        let interval = self.cfg.barrier_interval as u64;
        let before = self.epoch.injected.fetch_add(n as u64, Ordering::Relaxed);
        if (before + n as u64) / interval == before / interval {
            return;
        }
        let epoch = self.epoch.counter.fetch_add(1, Ordering::Relaxed);
        let senders = self.senders.read().clone();
        let mut participants: Vec<NodeId> = senders.keys().copied().collect();
        participants.sort_unstable();
        let participants = Arc::new(participants);
        let moves: EpochMoves = Arc::new(Vec::new());
        let (install_tx, _install_rx) = unbounded();
        let (done_tx, _done_rx) = unbounded();
        for s in senders.values() {
            // A worker that dies mid-wave simply never announces; the
            // stalled entry is memory-only and cleared by the next
            // rollback.
            let _ = s.send(Msg::EpochBarrier {
                epoch,
                moves: Arc::clone(&moves),
                participants: Arc::clone(&participants),
                install_done: ReplyTo::Chan(install_tx.clone()),
                done: ReplyTo::Chan(done_tx.clone()),
            });
        }
    }

    /// The ingestion path behind [`Injector::inject`]: pack rows straight
    /// into per-destination [`StreamChunk`]s, routing each row by one
    /// `base + key % span` group assignment under one routing read per
    /// input batch and per delivery. The caller's iterator is drained
    /// outside the routing lock, and the lock is released before any
    /// (potentially blocking) delivery. `log` controls replay logging:
    /// external injections are logged (when checkpointing is enabled) so
    /// recovery can replay them; the recovery replay itself re-injects
    /// *without* logging, or every fault would double the log.
    fn inject_chunks(
        &self,
        op: OperatorId,
        tuples: impl IntoIterator<Item = Tuple>,
        log: bool,
    ) -> usize {
        let log = log && self.log.is_enabled();
        let mut total = 0usize;
        // Few destinations (one per node): linear scan beats hashing.
        let (mut buckets, mut staging) = INJECT_SCRATCH.take();
        let range = self.topology.groups_of(op);
        let (base, span) = (range.start, (range.end - range.start) as u64);
        let mut iter = tuples.into_iter();
        loop {
            // Pull a batch from the caller's iterator *outside* the
            // routing lock — user code (e.g. an iterator blocking on a
            // socket) must never stall a concurrent reconfiguration.
            staging.clear();
            staging.extend(iter.by_ref().take(self.cfg.batch_size));
            if log {
                // Log before delivery: a tuple that lands in a crashing
                // worker's channel must already be recoverable.
                self.log.record(op, staging.iter());
            }
            let consumed = staging.len();
            total += consumed;
            // Pack each tuple straight into its destination bucket: one
            // columnar append per row, no intermediate chunk and no
            // injector-side sort — receivers bucket by group. A bucket
            // that fills is delivered at once, outside the routing lock,
            // so no chunk outgrows the `batch_size` rows its buffer holds.
            let mut rows = staging.drain(..);
            loop {
                let mut full = None;
                let routing = self.routing.read();
                for tuple in rows.by_ref() {
                    let g = base + (tuple.key % span) as u32;
                    let node = routing.node_of(KeyGroupId::new(g));
                    let i = match buckets.iter().position(|(n, _)| *n == node) {
                        Some(i) => i,
                        None => {
                            buckets.push((node, StreamChunk::new()));
                            buckets.len() - 1
                        }
                    };
                    let c = &mut buckets[i].1;
                    if c.capacity() == 0 {
                        *c = self.fresh_chunk(node);
                    }
                    c.push_routed(tuple, g);
                    if c.len() >= self.cfg.batch_size {
                        full = Some(i);
                        break;
                    }
                }
                drop(routing);
                let Some(i) = full else { break };
                let (node, c) = &mut buckets[i];
                self.deliver_chunk(*node, std::mem::take(c), INJECT_ATTEMPTS);
            }
            if consumed < self.cfg.batch_size {
                break;
            }
        }
        for (node, c) in buckets.drain(..) {
            if !c.is_empty() {
                self.deliver_chunk(node, c, INJECT_ATTEMPTS);
            }
        }
        INJECT_SCRATCH.set((buckets, staging));
        total
    }

    /// The buffer for the next chunk packed for `node`: one its inbox
    /// handed back, else a fresh one sized to the batch.
    fn fresh_chunk(&self, node: NodeId) -> StreamChunk {
        let spare = spare_for(&self.senders, node);
        spare.unwrap_or_else(|| StreamChunk::with_capacity(self.cfg.batch_size))
    }

    /// Tuples this injector's runtime failed to deliver so far (folded
    /// into the next period's [`PeriodStats::dropped_tuples`]).
    pub fn dropped_so_far(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Backpressure: block while the destination is at capacity. The
    /// worker drains continuously, so a healthy queue dips below capacity
    /// quickly; a vanished worker is detected by the aliveness re-check
    /// or, at the latest, by the failing send after the patience window.
    fn deliver_chunk(&self, dest: NodeId, chunk: StreamChunk, attempts: usize) {
        if let Err(Msg::DataChunk(chunk)) =
            hand_off(&self.senders, dest, INJECT_PATIENCE, Msg::DataChunk(chunk))
        {
            self.retry_or_drop_chunk(chunk, attempts);
        }
    }

    /// A chunk delivery failed: re-bucket its group runs against a fresh
    /// routing read (its groups may have migrated, or their host drained)
    /// and try again; once attempts are exhausted, count the loss.
    fn retry_or_drop_chunk(&self, chunk: StreamChunk, attempts: usize) {
        if attempts == 0 {
            self.dropped
                .fetch_add(chunk.visible_len() as u64, Ordering::Relaxed);
            return;
        }
        for (node, c) in rebucket(&chunk, &self.routing) {
            self.deliver_chunk(node, c, attempts - 1);
        }
    }
}

/// Handle to a running multi-threaded engine.
pub struct Runtime {
    topology: Arc<Topology>,
    routing: Arc<RoutingShared>,
    senders: InboxMap,
    handles: Vec<(NodeId, WorkerHandle)>,
    /// The worker boundary: how workers run (threads vs processes) and
    /// how messages reach them (channels vs sockets).
    transport: Box<dyn Transport>,
    cluster: Cluster,
    cost: CostModel,
    cfg: RuntimeConfig,
    clock: PeriodClock,
    history: Vec<PeriodRecord>,
    /// Tuples [`Runtime::inject`]/[`Injector`]s failed to deliver since
    /// the last period collection.
    inject_dropped: Arc<AtomicU64>,
    /// Inbox receivers of terminated workers. A sender that cloned a
    /// worker's channel before it was unpublished can complete a send
    /// arbitrarily late (its backpressure wait can outlive the worker's
    /// final drain); keeping the receiver alive means such a batch lands
    /// here instead of being destroyed, and [`Runtime::drain_graveyard`]
    /// re-routes it at the next settle/period boundary.
    graveyard: Vec<InboxRx>,
    /// The most counting rounds one [`Runtime::quiesce`] runs on a plane
    /// that never goes quiet: `2·(depth+1)`, enough for a tuple to
    /// traverse the whole topology with margin.
    settle_rounds: usize,
    /// The activity counters of the last complete counting round, sorted
    /// by node: what the next round confirms a quiet plane against.
    last_round: Mutex<Option<Vec<Activity>>>,
    /// Control fan-outs issued so far ([`Runtime::control_fanouts`]).
    fanouts: AtomicU64,
    /// Inject-side replay log (shared with every [`Injector`]); disabled
    /// until [`Runtime::configure_recovery`].
    replay_log: Arc<ReplayLog>,
    /// Capture a checkpoint at every `checkpoint_interval`-th period
    /// boundary; 0 = checkpointing (and replay logging) disabled.
    checkpoint_interval: u64,
    /// The log-structured checkpoint store: base images + delta layers,
    /// plus the optional cold-state spill tier (see [`crate::checkpoint`]).
    checkpoint_store: CheckpointStore,
    /// Recovery accounting folded into the next period's record.
    pending_recovery: RecoveryAccounting,
    /// Spill failures (worker reads and store writes) reported since the
    /// last period record, folded into the next one.
    spill_failures: AtomicU64,
    /// What [`Runtime::apply`] runs around the migration wave, how the
    /// period is charged for its pause, and whether injectors emit
    /// periodic no-op barrier waves.
    mode: ReconfigMode,
    /// Epoch counter + injected-tuple counter shared with injectors.
    epoch: Arc<EpochShared>,
}

impl Runtime {
    /// Spawn one worker per cluster node with the given initial routing,
    /// data-plane tuning and worker substrate. Fails only in networked
    /// mode, where binding the listener or launching worker processes can
    /// hit I/O errors.
    pub fn start_with_options(
        topology: Topology,
        cluster: Cluster,
        routing: RoutingTable,
        cost: CostModel,
        cfg: RuntimeConfig,
        options: TransportOptions,
    ) -> std::io::Result<Runtime> {
        let transport: Box<dyn Transport> = match options {
            TransportOptions::InProcess => Box::new(InProcessTransport),
            TransportOptions::Net(net) => {
                if let Some(expected) = net.expected_workers {
                    let nodes = cluster.nodes().len();
                    if expected != nodes {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            format!(
                                "expected_workers ({expected}) must match the cluster \
                                 size ({nodes}): every node needs exactly one joined worker"
                            ),
                        ));
                    }
                }
                Box::new(NetTransport::new(net)?)
            }
        };
        Ok(Runtime::start_with_transport(
            topology, cluster, routing, cost, cfg, transport,
        ))
    }

    /// [`Runtime::start_with_options`] with an explicit [`Transport`]
    /// backend — the root constructor it delegates to.
    pub fn start_with_transport(
        topology: Topology,
        cluster: Cluster,
        routing: RoutingTable,
        cost: CostModel,
        cfg: RuntimeConfig,
        transport: Box<dyn Transport>,
    ) -> Runtime {
        assert_eq!(routing.len() as u32, topology.num_key_groups());
        let settle_rounds = 2 * (topology.depth() + 1);
        let mut rt = Runtime {
            topology: Arc::new(topology),
            routing: Arc::new(RoutingShared::new(routing)),
            senders: Arc::new(RwLock::new(HashMap::new())),
            handles: Vec::new(),
            transport,
            cluster,
            cost,
            cfg: cfg.normalized(),
            clock: PeriodClock::new(),
            history: Vec::new(),
            inject_dropped: Arc::new(AtomicU64::new(0)),
            graveyard: Vec::new(),
            settle_rounds,
            last_round: Mutex::new(None),
            fanouts: AtomicU64::new(0),
            replay_log: Arc::new(ReplayLog::disabled()),
            checkpoint_interval: 0,
            checkpoint_store: CheckpointStore::new(
                CheckpointMode::Full,
                crate::checkpoint::DEFAULT_MAX_DELTA_LAYERS,
                None,
            )
            .expect("a store without a spill tier touches no disk"),
            pending_recovery: RecoveryAccounting::default(),
            spill_failures: AtomicU64::new(0),
            mode: ReconfigMode::Quiesce,
            epoch: Arc::new(EpochShared::new()),
        };
        let nodes: Vec<NodeId> = rt.cluster.nodes().iter().map(|n| n.id).collect();
        for node in nodes {
            rt.spawn_worker_thread(node);
        }
        rt
    }

    /// Build an inbox for `node` and spawn its worker thread. The inbox
    /// is published before the thread starts, so other workers can route
    /// to the new node immediately.
    fn spawn_worker_thread(&mut self, node: NodeId) {
        let (tx, rx) = inbox::channel(&self.cfg);
        self.senders.write().insert(node, tx);
        let spawn = WorkerSpawn {
            node,
            inbox: rx,
            topology: Arc::clone(&self.topology),
            routing: Arc::clone(&self.routing),
            senders: Arc::clone(&self.senders),
            dropped: Arc::clone(&self.inject_dropped),
            cfg: self.cfg,
        };
        let handle = match self.transport.spawn_worker(spawn) {
            Ok(h) => WorkerHandle::Live(h),
            Err(failed) => {
                // The worker never came up: degrade to the crashed-worker
                // path (the corpse is detected and recovered like any
                // other death) instead of taking the whole job down.
                let (error, mailbox) = failed.into_parts();
                eprintln!("albic: {error}; degrading to crashed-worker recovery");
                WorkerHandle::Corpse(Some(mailbox))
            }
        };
        self.handles.push((node, handle));
    }

    /// Push the authoritative routing table to every worker replica.
    /// In-process this is a no-op (workers share the table by `Arc`);
    /// networked workers receive a `ROUTING` frame. Must run after the
    /// authoritative mutation and before any control message that relies
    /// on workers seeing it.
    fn broadcast_routing(&self) {
        let version = self.routing.version();
        let assignment = self.routing.read().assignment().to_vec();
        self.transport
            .broadcast_routing(version, &assignment, &Peers(&self.senders));
    }

    /// Elastic scale-out: acquire a node of the given relative capacity and
    /// spawn a live worker thread for it. Returns the new node's id —
    /// deterministic, so it matches what a policy previewed with
    /// [`Cluster::peek_next_ids`].
    pub fn add_worker(&mut self, capacity: f64) -> NodeId {
        let id = self.cluster.add_node(capacity);
        self.spawn_worker_thread(id);
        id
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The data-plane configuration this runtime was started with.
    pub fn config(&self) -> RuntimeConfig {
        self.cfg
    }

    /// Snapshot of the routing table.
    pub fn routing_snapshot(&self) -> RoutingTable {
        self.routing.snapshot()
    }

    /// A cloneable handle for injecting tuples from any thread (see
    /// [`Injector`] for the batching/backpressure semantics).
    pub fn injector(&self) -> Injector {
        Injector {
            topology: Arc::clone(&self.topology),
            routing: Arc::clone(&self.routing),
            senders: Arc::clone(&self.senders),
            dropped: Arc::clone(&self.inject_dropped),
            log: Arc::clone(&self.replay_log),
            epoch: Arc::clone(&self.epoch),
            cfg: self.cfg,
        }
    }

    /// Select what [`Runtime::apply`] runs around the migration wave (the
    /// stop-the-world fence, or nothing) and how the period is charged
    /// for its pause. In [`ReconfigMode::Epoch`], injectors additionally
    /// emit a no-op barrier wave every
    /// [`RuntimeConfig::barrier_interval`] tuples.
    pub fn set_reconfig_mode(&mut self, mode: ReconfigMode) {
        self.mode = mode;
        self.epoch
            .epoch_mode
            .store(mode == ReconfigMode::Epoch, Ordering::Release);
    }

    /// The currently selected reconfiguration mode.
    pub fn reconfig_mode(&self) -> ReconfigMode {
        self.mode
    }

    /// Enable checkpoint-based recovery: a snapshot of every key group's
    /// state is captured at each `interval`-th period boundary (aligned,
    /// with the plane settled and producers fenced — the boundary the simulator
    /// checkpoints at), and every injected tuple since the last
    /// checkpoint is kept in a replay log bounded at `log_capacity`
    /// tuples. [`Runtime::recover`] then restores a crashed worker's
    /// groups with exactly-once semantics: checkpoint + logged delta.
    ///
    /// `interval = 0` disables checkpointing and logging; recovery still
    /// re-homes a dead worker's groups (availability), but their state
    /// restarts empty.
    pub fn configure_recovery(&mut self, interval: u64, log_capacity: usize) {
        self.checkpoint_interval = interval;
        if interval > 0 {
            self.replay_log.enable(log_capacity);
        }
    }

    /// Select how checkpoints are captured (see [`CheckpointMode`]) and
    /// optionally enable the cold-state spill tier. Replaces the store,
    /// so it must be called before the first capture — the job builder
    /// does this at build time. The spill directory is created here, and
    /// a directory that cannot be created is returned as the error (the
    /// previous store stays in place); note that spilling requires
    /// coordinator and workers to share a filesystem (in-process and
    /// loopback transports do; a spill tier across machines would need a
    /// shared mount).
    pub fn configure_checkpointing(
        &mut self,
        mode: CheckpointMode,
        spill: Option<SpillConfig>,
    ) -> std::io::Result<()> {
        self.checkpoint_store =
            CheckpointStore::new(mode, crate::checkpoint::DEFAULT_MAX_DELTA_LAYERS, spill)?;
        Ok(())
    }

    /// Inject external tuples into a source operator. Tuples are routed by
    /// key to the hosting worker of their key group, in batches; blocks
    /// while destination queues are at capacity (backpressure).
    pub fn inject(&self, op: OperatorId, tuples: impl IntoIterator<Item = Tuple>) {
        self.injector().inject(op, tuples);
    }

    /// Recover chunks that landed in a terminated worker's channel
    /// after its final drain: re-route them to the groups' current
    /// owners, counting anything undeliverable. Called at every settle
    /// and period boundary; receivers stay parked so arbitrarily late
    /// sends are still caught next time.
    fn drain_graveyard(&mut self) {
        for i in 0..self.graveyard.len() {
            while let Ok(msg) = self.graveyard[i].try_next() {
                let Msg::DataChunk(chunk) = msg else {
                    continue;
                };
                for (node, c) in rebucket(&chunk, &self.routing) {
                    let n = c.visible_len() as u64;
                    let chunk = Msg::DataChunk(c);
                    if hand_off(&self.senders, node, WORKER_SEND_PATIENCE, chunk).is_err() {
                        self.inject_dropped.fetch_add(n, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Nodes whose worker thread has exited outside the controlled drain
    /// lifecycle — a fault-injected crash or a panic. (Graceful
    /// termination removes the handle, so a finished handle is a corpse.)
    fn crashed_workers(&self) -> Vec<NodeId> {
        self.handles
            .iter()
            .filter(|(_, h)| h.is_finished())
            .map(|(n, _)| *n)
            .collect()
    }

    /// `true` while `node`'s worker thread is running.
    fn worker_alive(&self, node: NodeId) -> bool {
        self.handles
            .iter()
            .any(|(n, h)| *n == node && !h.is_finished())
    }

    /// Published senders of workers that are actually running. A crashed
    /// worker's channel stays open (its receiver lives in the parked
    /// join handle), so sending to it succeeds but is never answered —
    /// every control-plane fan-out must skip corpses or it hangs.
    fn alive_senders(&self) -> Vec<(NodeId, Inbox)> {
        let senders = self.senders.read();
        let alive = senders.iter().filter(|(n, _)| self.worker_alive(**n));
        alive.map(|(n, s)| (*n, s.clone())).collect()
    }

    /// Collect one reply per involved worker, watching their liveness: a
    /// worker that dies mid-collection can never answer, so the wait
    /// drains what raced in and returns short instead of hanging (the
    /// next [`Runtime::recover`] handles the corpse).
    fn gather<T>(&self, rx: &Receiver<T>, involved: &[NodeId]) -> Vec<T> {
        self.gather_n(rx, involved.len(), involved)
    }

    /// [`Runtime::gather`] with an explicit reply count: the epoch
    /// protocol expects one reply per *move* while watching the liveness
    /// of the participating *workers* — the two cardinalities differ.
    fn gather_n<T>(&self, rx: &Receiver<T>, expect: usize, watched: &[NodeId]) -> Vec<T> {
        std::iter::from_fn(|| self.wait_reply(rx, watched))
            .take(expect)
            .collect()
    }

    /// Wait for a single protocol reply, watching the involved workers:
    /// if one dies before answering, the wait returns `None` (after one
    /// final non-blocking look, in case the reply raced the death)
    /// instead of hanging forever.
    ///
    /// A healthy worker answers within tens of microseconds, so the wait
    /// first polls (yielding the CPU between looks) for one
    /// [`PRESSURE_POLL`] and takes the common reply without parking. Past
    /// that it blocks on the channel, so a slow reply still wakes the
    /// coordinator the moment it lands; the block's [`PRESSURE_POLL`]
    /// timeout only paces the liveness re-check. A crashed worker's copy
    /// of the reply sender lives on in its parked inbox, so the channel
    /// never disconnects and only that check can end the wait.
    fn wait_reply<T>(&self, rx: &Receiver<T>, involved: &[NodeId]) -> Option<T> {
        let spin_until = Instant::now() + PRESSURE_POLL;
        loop {
            if involved.iter().any(|&n| !self.worker_alive(n)) {
                return rx.try_recv().ok();
            }
            if Instant::now() < spin_until {
                match rx.try_recv() {
                    Ok(v) => return Some(v),
                    Err(TryRecvError::Disconnected) => return None,
                    Err(TryRecvError::Empty) => std::thread::yield_now(),
                }
                continue;
            }
            match rx.recv_timeout(PRESSURE_POLL) {
                Ok(v) => return Some(v),
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
    }

    /// Send one control message to every live worker (`make` builds it
    /// around the shared reply handle) and [`Runtime::gather`] the
    /// replies; returns them and whether every worker reached answered.
    fn fan_out<T>(&self, mut make: impl FnMut(NodeId, ReplyTo<T>) -> Msg) -> (Vec<T>, bool) {
        self.fanouts.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded();
        let involved: Vec<NodeId> = self
            .alive_senders()
            .into_iter()
            .filter(|(node, s)| s.send(make(*node, ReplyTo::Chan(tx.clone()))).is_ok())
            .map(|(node, _)| node)
            .collect();
        drop(tx);
        let replies = self.gather(&rx, &involved);
        let complete = replies.len() == involved.len();
        (replies, complete)
    }

    /// Control fan-outs issued so far, one per message broadcast to every
    /// live worker (counting round, window flush, statistics collection,
    /// epoch wave, rollback): a machine-independent control-plane cost.
    pub fn control_fanouts(&self) -> u64 {
        self.fanouts.load(Ordering::Relaxed)
    }

    /// Wait until the data plane is quiet: every data chunk enqueued so
    /// far processed, everything it emitted too, and no chunk left in any
    /// queue. Returns the counting rounds it ran: one when the plane was
    /// already quiet at the previous round, at most `2·(depth+1)` on a
    /// plane that keeps moving. A round a worker dies in ends the wait
    /// unconfirmed (the next [`Runtime::recover`] handles the corpse).
    /// See the module docs, *How the coordinator waits*, for the rule and
    /// why it is sound.
    pub fn quiesce(&self) -> usize {
        for round in 1..=self.settle_rounds {
            let (acks, complete) = self.fan_out(|_, ack| Msg::Barrier(ack));
            if self.confirm_quiet(acks, complete) != Some(false) {
                return round;
            }
        }
        self.settle_rounds
    }

    /// Fold one counting round into the remembered counters: `Some(true)`
    /// when they equal the previous complete round's (quiet), `Some(false)`
    /// when something moved, and `None` for an incomplete round, which
    /// forgets the previous one: nothing is confirmed past a dead worker.
    fn confirm_quiet(&self, mut acks: Vec<Activity>, complete: bool) -> Option<bool> {
        let mut last = self.last_round.lock();
        if !complete {
            *last = None;
            return None;
        }
        acks.sort_unstable();
        let quiet = last.as_ref() == Some(&acks);
        *last = Some(acks);
        Some(quiet)
    }

    /// End the current statistics period: flush windows, settle what
    /// they emitted, collect and merge worker statistics (including the
    /// per-worker pressure signal) together with a period-aligned
    /// checkpoint when one is due, and return the period snapshot.
    pub fn end_period(&mut self) -> PeriodStats {
        // A replay log at its soft capacity pulls the capture forward to
        // this boundary regardless of the schedule: overflow forces an
        // early checkpoint instead of truncating the delta.
        let period = self.clock.current().index();
        let due = self.checkpoint_interval > 0
            && ((period + 1) % self.checkpoint_interval == 0 || self.replay_log.over_capacity());
        // A due capture holds the injection fence to the end, so the states
        // captured and the log cleared after them are one cut: no tuple is
        // logged before the clear yet reaches its worker after the capture.
        let log = Arc::clone(&self.replay_log);
        let _fence = due.then(|| log.gate.write());
        // Recover anything a late sender parked in a dead worker's
        // channel before measuring.
        self.drain_graveyard();
        // The flush is a counting round: when the windows emitted nothing
        // across workers and the plane was quiet, it confirms that.
        let (acks, complete) = self.fan_out(|_, ack| Msg::FlushWindows { ack });
        if self.confirm_quiet(acks, complete) != Some(true) {
            // Window emissions are crossing workers: settle them.
            self.quiesce();
        }

        // Period-aligned checkpoint: the plane is settled and the fence
        // keeps producers out, so the states captured with the statistics
        // plus a fresh log are a consistent cut of the stream.
        let full = self.checkpoint_store.wants_full();
        let capture = due.then_some(if full {
            CheckpointMode::Full
        } else {
            CheckpointMode::Incremental
        });
        // Collect stats, tracking which worker each snapshot came from so
        // the per-node pressure signal survives the merge.
        let (replies, complete) = self.fan_out(|_, reply| Msg::CollectStats { capture, reply });
        let mut merged = StatsCollector::new();
        let mut pressure: HashMap<NodeId, NodePressure> = HashMap::new();
        let mut states: Vec<(u32, Vec<u8>)> = Vec::new();
        for (node, c, snap, failures) in replies {
            self.spill_failures.fetch_add(failures, Ordering::Relaxed);
            let p = NodePressure {
                ingested: c.ingested,
                emitted: c.emitted,
                dropped: c.dropped,
                ..Default::default()
            };
            pressure.insert(node, p);
            merged.merge(&c);
            states.extend(snap.into_iter().flatten().map(|(g, s)| (g, s.bytes)));
        }
        for (node, inbox) in self.senders.read().iter() {
            let p = pressure.entry(*node).or_default();
            inbox.credit.collect_into(p);
        }
        // Losses at the ingestion edge (no worker collector saw them).
        let injected_lost = self.inject_dropped.swap(0, Ordering::Relaxed);
        merged.record_dropped(injected_lost as f64);

        let period = self.clock.advance();
        let allocation = self.routing.read().assignment().to_vec();
        let mut stats =
            PeriodStats::compute(period, &merged, allocation, &self.cluster, &self.cost);
        stats.pressure = pressure;
        let recovery = std::mem::take(&mut self.pending_recovery);
        let checkpoint_bytes = capture.map_or(0, |_| {
            self.commit_checkpoint(period.index(), states, full, complete)
        });
        // Everything injected from here on belongs to the next period —
        // the tag replay uses to rewind stats to the checkpoint.
        self.replay_log.set_period(period.index() + 1);
        self.history.push(PeriodRecord {
            period: period.index(),
            load_distance: stats.load_distance(&self.cluster),
            mean_load: stats.mean_load(&self.cluster),
            total_system_load: stats.total_system_load(),
            collocation_factor: stats.collocation_factor(),
            migrations: 0,
            migration_cost: 0.0,
            migration_pause_secs: 0.0,
            migration_state_bytes: 0,
            migration_wire_bytes: 0,
            num_nodes: self.cluster.len(),
            marked_nodes: self.cluster.marked().count(),
            dropped_tuples: stats.dropped_tuples,
            failed_nodes: recovery.failed_nodes,
            groups_restored: recovery.groups_restored,
            tuples_replayed: recovery.tuples_replayed,
            recovery_secs: recovery.recovery_secs,
            checkpoint_bytes,
            delta_bytes: self.checkpoint_store.delta_bytes(),
            spilled_groups: self.checkpoint_store.spilled_count(),
            spill_failures: self.spill_failures.swap(0, Ordering::Relaxed),
        });
        // The data plane is settled: a safe point for transport
        // housekeeping (e.g. pruning resolved reply correlations).
        self.transport.end_period();
        stats
    }

    /// Commit a checkpoint captured by the period's statistics
    /// collection and reset the replay log — everything up to and
    /// including `period` is now covered by the store. In incremental
    /// mode only dirty groups were serialized; returns the captured bytes
    /// for the period record.
    ///
    /// The capture must be all-or-nothing: if a worker died before
    /// replying (`complete` unset), committing the partial cut (and
    /// clearing the log that could rebuild the missing groups) would
    /// silently lose state — so it is abandoned instead, keeping the
    /// previous checkpoint and the (still-growing) log, and the next
    /// period boundary retries with a forced full capture (some workers
    /// already drained their dirty sets into the abandoned cut).
    fn commit_checkpoint(
        &mut self,
        period: u64,
        mut states: Vec<(u32, Vec<u8>)>,
        full: bool,
        complete: bool,
    ) -> u64 {
        if !complete {
            self.checkpoint_store.abandon();
            return 0;
        }
        states.sort_unstable_by_key(|(g, _)| *g);
        let outcome = self.checkpoint_store.ingest(period, states, full);
        self.spill_failures
            .fetch_add(self.checkpoint_store.take_failures(), Ordering::Relaxed);
        self.replay_log.clear();
        // Tell each worker where the spilled groups it owns now live (the
        // full current set, so a previously missed message heals).
        // Workers keep any group they have re-dirtied since this capture
        // began — impossible here, as the plane was settled before it and
        // the caller holds the injection fence — and fault spilled groups
        // back in from their records on next access.
        if let Some(segment) = self.checkpoint_store.segment_path() {
            let segment = segment.to_string_lossy().into_owned();
            let mut per_node = self.extents_by_owner();
            for (node, s) in self.alive_senders() {
                let _ = s.send(Msg::SpillGroups {
                    segment: segment.clone(),
                    extents: per_node.remove(&node).unwrap_or_default(),
                });
            }
        }
        outcome.captured_bytes
    }

    /// Execute migrations as one epoch barrier wave (see the module docs
    /// for the protocol) and fold the executed moves into the latest
    /// period's history record, charging the pause the runtime's
    /// [`ReconfigMode`] models. Blocks until every destination has
    /// installed state and replayed its buffer. Nothing is quiesced here;
    /// [`Runtime::apply`] adds the stop-the-world fence in
    /// [`ReconfigMode::Quiesce`].
    ///
    /// Moves that cannot be executed are returned in
    /// [`ApplyReport::failed`], never silently dropped; a failed move
    /// leaves the key group (state and routing) on its source node. The
    /// authoritative routing table flips only on success, per installed
    /// move; a wave aborted by a worker death un-flips every surviving
    /// cache with a routing-version bump and reports the unresolved moves
    /// as failed — the recovery pass then restores exactly-once from the
    /// checkpoint.
    pub fn migrate(&mut self, migrations: &[Migration]) -> ApplyReport {
        self.run_wave(migrations, self.mode)
    }

    /// [`Runtime::migrate`] with the pause charged per `mode`.
    fn run_wave(&mut self, migrations: &[Migration], mode: ReconfigMode) -> ApplyReport {
        let mut report = ApplyReport::default();
        // Validation + destination pre-round, move by move: a move that
        // cannot start drops out alone, it never takes the wave down.
        let mut live: Vec<(KeyGroupId, NodeId, NodeId)> = Vec::new();
        for &Migration { group, to } in migrations {
            let from = self.routing.node_of(group);
            if from == to {
                continue;
            }
            let fail = |reason| FailedMigration {
                group,
                from,
                to,
                reason,
            };
            if self.cluster.get(to).is_none() {
                report
                    .failed
                    .push(fail(MigrationFailure::UnknownDestination));
                continue;
            }
            // A crashed worker's channel stays open, so the aliveness
            // check (not the send) is what detects a corpse endpoint —
            // waiting for a reply from one would hang the protocol.
            let senders = self.senders.read();
            let (src, dst) = (senders.get(&from).cloned(), senders.get(&to).cloned());
            drop(senders);
            if src.filter(|_| self.worker_alive(from)).is_none() {
                report
                    .failed
                    .push(fail(MigrationFailure::SourceUnavailable));
                continue;
            }
            let Some(dst) = dst.filter(|_| self.worker_alive(to)) else {
                report
                    .failed
                    .push(fail(MigrationFailure::DestinationUnavailable));
                continue;
            };
            // The ack proves the window exists *before* any worker can
            // observe the flip (see [`Msg::PrepareReceive`]).
            let (prep_tx, prep_rx) = unbounded();
            if dst
                .send(Msg::PrepareReceive {
                    kg: group,
                    ack: ReplyTo::Chan(prep_tx),
                })
                .is_err()
                || self.wait_reply(&prep_rx, &[to]).is_none()
            {
                report
                    .failed
                    .push(fail(MigrationFailure::DestinationUnavailable));
                continue;
            }
            live.push((group, from, to));
        }
        if live.is_empty() {
            return report;
        }
        // One wave over every live worker. The participant list is part
        // of the barrier message: each worker knows exactly whose
        // announcements to await.
        let senders = self.alive_senders();
        let mut participants: Vec<NodeId> = senders.iter().map(|(node, _)| *node).collect();
        participants.sort_unstable();
        // An endpoint that died between validation and this snapshot is
        // outside the wave and its move could never resolve — fail it
        // now instead of waiting on a reply no one will send.
        let (live, raced): (Vec<_>, Vec<_>) = live
            .into_iter()
            .partition(|&(_, f, t)| participants.contains(&f) && participants.contains(&t));
        for (group, from, to) in raced {
            let reason = if participants.contains(&from) {
                MigrationFailure::DestinationUnavailable
            } else {
                MigrationFailure::SourceUnavailable
            };
            report.failed.push(FailedMigration {
                group,
                from,
                to,
                reason,
            });
        }
        if live.is_empty() {
            return report;
        }
        let epoch = self.epoch.counter.fetch_add(1, Ordering::Relaxed);
        let participants = Arc::new(participants);
        let moves: EpochMoves = Arc::new(live.clone());
        let (install_tx, install_rx) = unbounded();
        let (done_tx, done_rx) = unbounded();
        self.fanouts.fetch_add(1, Ordering::Relaxed);
        let mut involved = Vec::new();
        for (node, s) in &senders {
            if s.send(Msg::EpochBarrier {
                epoch,
                moves: Arc::clone(&moves),
                participants: Arc::clone(&participants),
                install_done: ReplyTo::Chan(install_tx.clone()),
                done: ReplyTo::Chan(done_tx.clone()),
            })
            .is_ok()
            {
                involved.push(*node);
            }
        }
        drop(install_tx);
        drop(done_tx);
        // Alignment needs *every* participant, so a death anywhere in the
        // wave (not just at a move endpoint) stalls it — both waits watch
        // the full participant set and return short on a corpse.
        let _acks = self.gather(&done_rx, &involved);
        let replies = self.gather_n(&install_rx, live.len(), &involved);
        let mut installed: HashMap<u32, (usize, usize)> = HashMap::new();
        let mut gone: Vec<u32> = Vec::new();
        for (kg, reply) in replies {
            match reply {
                InstallReply::Installed {
                    state_bytes,
                    wire_bytes,
                } => {
                    installed.insert(kg.raw(), (state_bytes, wire_bytes));
                }
                InstallReply::DestinationGone => gone.push(kg.raw()),
            }
        }
        // Authoritative flips for the moves that completed; everything
        // else aborts. The un-flip must precede the cancels: a canceled
        // window replays its buffer through `on_chunk`, which must no
        // longer believe the group lives there.
        let mut flips: Vec<(KeyGroupId, NodeId)> = Vec::new();
        let mut aborted: Vec<(KeyGroupId, NodeId, NodeId, MigrationFailure)> = Vec::new();
        for &(group, from, to) in &live {
            if let Some(&(state_bytes, wire_bytes)) = installed.get(&group.raw()) {
                flips.push((group, to));
                report.migrations.push(
                    MigrationReport::from_cost_model(group, from, to, state_bytes, &self.cost)
                        .with_wire_bytes(wire_bytes),
                );
            } else if gone.contains(&group.raw()) {
                aborted.push((group, from, to, MigrationFailure::DestinationUnavailable));
            } else {
                aborted.push((group, from, to, MigrationFailure::ProtocolAborted));
            }
        }
        // One version bump and one replica broadcast cover both outcomes:
        // completed flips and the abort's un-flip. The broadcast must land
        // on each worker's socket *before* the CancelReceive below, so a
        // canceled window replays its buffer against the restored
        // (un-flipped) table.
        if !flips.is_empty() || !aborted.is_empty() {
            self.routing.reroute_all(&flips);
            self.broadcast_routing();
        }
        for &(group, from, to, reason) in &aborted {
            if let Some(dst) = self.senders.read().get(&to).cloned() {
                let _ = dst.send(Msg::CancelReceive { kg: group });
            }
            report.failed.push(FailedMigration {
                group,
                from,
                to,
                reason,
            });
        }
        if let Some(rec) = self.history.last_mut() {
            rec.migrations += report.migrations.len();
            rec.migration_cost += report.total_cost();
            rec.migration_pause_secs += mode.charged_pause_secs(&report);
            rec.migration_state_bytes += report.total_state_bytes();
            rec.migration_wire_bytes += report.total_wire_bytes();
        }
        report
    }

    /// Execute a full reconfiguration plan in the runtime's
    /// [`ReconfigMode`]: spawn a worker per acquired node, run the plan's
    /// migrations as one epoch wave, and mark nodes for removal.
    /// Accounting is folded into the most recent period's history record,
    /// mirroring the simulator.
    pub fn apply(&mut self, plan: &ReconfigPlan) -> ApplyReport {
        self.execute(plan, self.mode)
    }

    /// The one plan executor behind [`Runtime::apply`] and
    /// [`ReconfigEngine::apply_epoch`]. In [`ReconfigMode::Quiesce`],
    /// with recovery configured, a plan that migrates runs
    /// stop-the-world: the injection fence is held (producers block) and
    /// the data plane is settled before and after the wave — the honest
    /// baseline the bare epoch wave is measured against, and the
    /// guarantee that no logged tuple is in flight while state changes
    /// hands.
    fn execute(&mut self, plan: &ReconfigPlan, mode: ReconfigMode) -> ApplyReport {
        // Nodes are acquired before migrations run, so a plan may target
        // the ids it previewed with `Cluster::peek_next_ids`.
        let added: Vec<NodeId> = plan.add_nodes.iter().map(|&c| self.add_worker(c)).collect();
        let stop_the_world = mode == ReconfigMode::Quiesce
            && !plan.migrations.is_empty()
            && self.replay_log.is_enabled();
        let log = Arc::clone(&self.replay_log);
        let _gate = stop_the_world.then(|| log.gate.write());
        if stop_the_world {
            self.quiesce();
        }
        let mut report = self.run_wave(&plan.migrations, mode);
        if stop_the_world {
            self.quiesce();
        }
        report.added = added;
        for &node in &plan.mark_removal {
            if self.cluster.mark_for_removal(node) {
                report.marked.push(node);
            }
        }
        if let Some(rec) = self.history.last_mut() {
            rec.num_nodes = self.cluster.len();
            rec.marked_nodes = self.cluster.marked().count();
        }
        report
    }

    /// Terminate every marked node whose key groups have all been drained
    /// (Algorithm 1, lines 1-3): settle in-flight tuples, stop the worker,
    /// join its thread and release the node. Returns the terminated ids.
    ///
    /// With a crashed, unrecovered worker anywhere in the cluster this
    /// returns an empty list (the controlled drain cannot run — see
    /// [`Runtime::try_terminate_drained`], which surfaces the typed
    /// error); the controller's recovery phase clears the condition
    /// before the next drain attempt.
    pub fn terminate_drained(&mut self) -> Vec<NodeId> {
        self.try_terminate_drained().unwrap_or_default()
    }

    /// [`Runtime::terminate_drained`], surfacing the failure mode: a
    /// worker thread that is dead outside the drain lifecycle (crash or
    /// panic) makes the drain's quiesce unsafe — this used to block
    /// forever on an acknowledgement the corpse could never send (and
    /// then on its join handle); now it is a typed error telling the
    /// caller to run [`Runtime::recover`] first.
    pub fn try_terminate_drained(&mut self) -> Result<Vec<NodeId>, TerminateError> {
        if let Some(&node) = self.crashed_workers().first() {
            return Err(TerminateError::WorkerCrashed(node));
        }
        let drained: Vec<NodeId> = {
            let routing = self.routing.read();
            self.cluster
                .marked()
                .map(|n| n.id)
                .filter(|&n| routing.groups_on(n).is_empty())
                .collect()
        };
        if drained.is_empty() {
            return Ok(drained);
        }
        // Nothing routes to a drained node any more, but tuples forwarded
        // to it before its last group moved away may still sit in its
        // inbox; quiescing flushes them out to their new owners.
        self.quiesce();
        for &node in &drained {
            // Unpublish first so no worker can clone the inbox afterwards,
            // and retire it, so a sender waiting for its credit gives up.
            let inbox = self.senders.write().remove(&node);
            if let Some(inbox) = inbox {
                inbox.retire();
                let _ = inbox.send(Msg::Shutdown);
            }
            if let Some(pos) = self.handles.iter().position(|(id, _)| *id == node) {
                let (_, handle) = self.handles.remove(pos);
                if let Some(rx) = handle.join() {
                    // Keep the dead worker's channel: a late send from a
                    // pre-unpublish sender clone may still land in it.
                    self.graveyard.push(*rx.0);
                }
            }
            self.transport.worker_gone(node);
            self.cluster.terminate(node);
        }
        Ok(drained)
    }

    /// Serialized state of one key group, fetched from its hosting worker
    /// (`None` if the group has no state or its worker is dead).
    pub fn probe_state(&self, kg: KeyGroupId) -> Option<Vec<u8>> {
        let node = self.routing.node_of(kg);
        let sender = self.senders.read().get(&node).cloned()?;
        let (tx, rx) = unbounded();
        sender
            .send(Msg::ProbeState {
                kg,
                reply: ReplyTo::Chan(tx),
            })
            .ok()?;
        self.wait_reply(&rx, &[node]).flatten()
    }

    /// Abruptly kill a live worker thread — the runtime's fault-injection
    /// hook. The worker dies at its next message boundary (which keeps
    /// scripted fault schedules deterministic), dropping every in-memory
    /// key-group state it holds; its sender stays published and its
    /// cluster entry intact, exactly like a real crash the engine has not
    /// noticed yet. Returns `false` if the node is unknown or already
    /// dead. [`Runtime::recover`] (run by the controller at the top of
    /// every adaptation round) detects and repairs the damage.
    pub fn inject_fault(&mut self, node: NodeId) -> bool {
        if !self.worker_alive(node) {
            return false;
        }
        // The transport owns the kill mechanism: a poison message for
        // in-process workers, a real SIGKILL for child processes.
        if !self.transport.inject_fault(node, &Peers(&self.senders)) {
            return false;
        }
        // Wait (bounded) for the thread to actually exit, so a scripted
        // kill has taken full effect before the script continues. As in
        // `wait_reply`: yield between looks for one `PRESSURE_POLL` (a
        // worker dies at its next message boundary), then sleep.
        let started = Instant::now();
        while self.worker_alive(node) && started.elapsed() < FAULT_PATIENCE {
            if started.elapsed() < PRESSURE_POLL {
                std::thread::yield_now();
            } else {
                std::thread::sleep(PRESSURE_POLL);
            }
        }
        !self.worker_alive(node)
    }

    /// Sever a worker's transport *connection* while leaving the worker
    /// itself untouched — a scripted network fault. Networked sessions
    /// must survive this through the `RESUME` protocol (the point of the
    /// reconnect suite); in-process there is no socket, so this returns
    /// `false` and nothing happens. Contrast [`Runtime::inject_fault`],
    /// which kills the worker and defeats the reconnect policy.
    pub fn drop_socket(&mut self, node: NodeId) -> bool {
        self.transport.drop_connection(node)
    }

    /// Detect crashed workers and recover them: re-home their key groups
    /// onto the survivors, roll *every* worker back to the latest
    /// period-aligned checkpoint through the same install path a
    /// migration uses, and replay the post-checkpoint delta from the
    /// inject-side log. With checkpointing enabled
    /// ([`Runtime::configure_recovery`]) this is exactly-once: final
    /// states equal a fault-free run's. Without it, recovery is
    /// availability-only (groups restart empty).
    ///
    /// A worker that dies *during* recovery is picked up by the next
    /// pass of the internal loop — rollback + replay are idempotent, so
    /// the repeated pass is safe.
    pub fn recover(&mut self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        if self.crashed_workers().is_empty() {
            return report;
        }
        let t0 = Instant::now();
        // Hold the injection fence for the whole repair: no external
        // tuple may be logged-then-delivered across the rollback
        // boundary. Replay itself bypasses the gate (it re-injects
        // through the unlogged path), so this cannot self-deadlock.
        let log = Arc::clone(&self.replay_log);
        let _gate = log.is_enabled().then(|| log.gate.write());
        // Stale batches parked in terminated workers' channels must
        // re-enter routing *before* the rollback, or they would replay
        // on top of already-replayed state afterwards.
        self.drain_graveyard();
        let mut log_truncated = 0;
        for _pass in 0..=self.cluster.len() {
            let crashed = self.crashed_workers();
            if crashed.is_empty() {
                break;
            }
            for node in crashed {
                if !report.failed.contains(&node) {
                    report.failed.push(node);
                }
                // Unpublish, join the corpse, and drop its channel:
                // everything still queued there is covered by the
                // rollback + replay below.
                if let Some(inbox) = self.senders.write().remove(&node) {
                    inbox.retire();
                }
                if let Some(pos) = self.handles.iter().position(|(id, _)| *id == node) {
                    let (_, handle) = self.handles.remove(pos);
                    let _ = handle.join();
                }
                self.transport.worker_gone(node);
                self.cluster.terminate(node);
            }
            // Settle the survivors so no pre-crash tuple is still in
            // flight when the rollback discards and rebuilds state.
            self.quiesce();
            let survivors: Vec<NodeId> = self.cluster.alive().map(|n| n.id).collect();
            if survivors.is_empty() {
                // Total loss: nothing to restore onto. Routing still
                // points at the dead nodes; the report says so.
                break;
            }
            // Re-home the lost groups deterministically — the simulator
            // runs the identical placement, which is what makes a
            // FaultPlan substrate-equivalent.
            let mut lost: Vec<KeyGroupId> = Vec::new();
            {
                let routing = self.routing.snapshot();
                for &node in &report.failed {
                    lost.extend(routing.groups_on(node));
                }
            }
            self.routing
                .reroute_all(&recovery_placement(&lost, &survivors));
            // Survivors' replicas must see the re-homed placement before
            // the rollback installs states at their new owners.
            self.broadcast_routing();
            report.groups_restored += lost.len();
            // Restore the checkpoint and replay the delta; a crash in
            // the middle of either sends us around the loop again. With
            // checkpointing disabled there is nothing to restore *from*:
            // survivors keep their live state and only the dead node's
            // groups restart empty (availability-only recovery).
            if self.checkpoint_interval > 0 {
                if !self.rollback_to_checkpoint() {
                    continue;
                }
                let (replayed, truncated) = self.replay_log_entries();
                report.tuples_replayed = replayed;
                log_truncated = truncated;
                self.quiesce();
            }
        }
        report.checkpoint_period = self.checkpoint_store.period();
        report.groups_spilled = self.checkpoint_store.spilled_count();
        report.log_truncated = log_truncated;
        report.recovery_secs = t0.elapsed().as_secs_f64();
        // Tuples past the log bound could not be replayed: surface the
        // loss through the period's dropped counter.
        self.inject_dropped
            .fetch_add(log_truncated, Ordering::Relaxed);
        self.pending_recovery.failed_nodes += report.failed.len();
        self.pending_recovery.groups_restored += report.groups_restored;
        self.pending_recovery.tuples_replayed += report.tuples_replayed as f64;
        self.pending_recovery.recovery_secs += report.recovery_secs;
        report
    }

    /// Reset every worker to the latest checkpoint: clear all state,
    /// buffers and period counters, then install the checkpointed *hot*
    /// states at their current routing targets (the shared migration
    /// install path). Spilled groups are not shipped — the Rollback
    /// message carries their extents and the spill segment instead, and
    /// workers fault them in lazily from their records, which is what keeps
    /// rollback cost proportional to the hot set rather than total
    /// state. Returns `false` if a worker dies mid-rollback.
    fn rollback_to_checkpoint(&mut self) -> bool {
        // The rollback also rewinds the period's measurement: counters
        // recorded for work that is about to be discarded and replayed
        // would otherwise double-count (workers clear their collectors in
        // the Rollback handler; the inject-edge counter is cleared here).
        self.inject_dropped.store(0, Ordering::Relaxed);
        let routing = self.routing.snapshot();
        let mut per_node: HashMap<NodeId, Vec<(u32, StateBlob)>> = HashMap::new();
        for (g, bytes) in self.checkpoint_store.hot_states() {
            per_node
                .entry(routing.node_of(KeyGroupId::new(g)))
                .or_default()
                .push((g, StateBlob::new(bytes)));
        }
        let segment = self
            .checkpoint_store
            .segment_path()
            .map(|d| d.to_string_lossy().into_owned());
        let mut per_node_spilled = self.extents_by_owner();
        self.fan_out(|node, ack| Msg::Rollback {
            states: per_node.remove(&node).unwrap_or_default(),
            spilled: per_node_spilled.remove(&node).unwrap_or_default(),
            segment: segment.clone(),
            ack,
        })
        .1
    }

    /// The store's spilled extents, split by the node that currently
    /// owns each group.
    fn extents_by_owner(&self) -> HashMap<NodeId, Vec<SpillExtent>> {
        let routing = self.routing.read();
        let mut per_node: HashMap<NodeId, Vec<SpillExtent>> = HashMap::new();
        for ext in self.checkpoint_store.spilled_extents() {
            per_node
                .entry(routing.node_of(KeyGroupId::new(ext.group)))
                .or_default()
                .push(ext);
        }
        per_node
    }

    /// Re-inject the logged post-checkpoint delta in arrival order,
    /// without re-logging it. Returns `(tuples replayed, tuples lost to
    /// the log bound)`.
    ///
    /// Replay is two-phase so post-recovery statistics rewind to the
    /// checkpoint at *any* interval: entries belonging to already-closed
    /// periods are re-injected first and their re-measured stats
    /// discarded at a quiesced cut (their original measurements are
    /// already in [`Runtime::history`] — measuring them again would
    /// double-count against the fault-free oracle), then the current
    /// period's tail replays normally so its work is measured exactly
    /// once, by the period that will close over it.
    fn replay_log_entries(&self) -> (u64, u64) {
        let (entries, truncated) = self.replay_log.snapshot();
        let n = entries.len() as u64;
        if n == 0 {
            return (n, truncated);
        }
        let current = self.replay_log.current_period();
        // Entries are period-monotonic (the tag only ever advances).
        let split = entries.partition_point(|(p, _, _)| *p < current);
        self.replay_batches(&entries[..split]);
        if split > 0 {
            // Settle the replayed prior-period work, then drop the stats
            // it re-accumulated (worker collectors reset on collection;
            // state sizes survive a reset by design).
            self.quiesce();
            self.discard_period_stats();
        }
        self.replay_batches(&entries[split..]);
        (n, truncated)
    }

    /// Re-inject a slice of logged entries, batching consecutive
    /// same-operator runs, without re-logging them.
    fn replay_batches(&self, entries: &[(u64, OperatorId, Tuple)]) {
        if entries.is_empty() {
            return;
        }
        let injector = self.injector();
        let mut i = 0;
        while i < entries.len() {
            let op = entries[i].1;
            let j = entries[i..]
                .iter()
                .position(|(_, o, _)| *o != op)
                .map_or(entries.len(), |p| i + p);
            injector.inject_chunks(op, entries[i..j].iter().map(|(_, _, t)| t.clone()), false);
            i = j;
        }
    }

    /// Collect and discard every worker's period statistics counters.
    /// The collection itself resets the collectors (state sizes and group
    /// costs survive, exactly as at a real period boundary); dropping the
    /// replies erases the re-measured work of replayed prior periods.
    fn discard_period_stats(&self) {
        let (replies, _) = self.fan_out(|_, reply| Msg::CollectStats {
            capture: None,
            reply,
        });
        // Spill reads that failed during the replay are not measurement:
        // they are kept for the period record.
        let failures: u64 = replies.iter().map(|r| r.3).sum();
        self.spill_failures.fetch_add(failures, Ordering::Relaxed);
        // The inject-edge drop counter also belongs to the discarded
        // re-measurement window.
        self.inject_dropped.store(0, Ordering::Relaxed);
    }

    /// Metric history, one record per completed period.
    pub fn history(&self) -> &[PeriodRecord] {
        &self.history
    }

    /// Stop all workers and join their threads.
    pub fn shutdown(mut self) {
        for s in self.senders.read().values() {
            let _ = s.send(Msg::Shutdown);
        }
        for (_, h) in self.handles.drain(..) {
            let _ = h.join();
        }
        self.transport.shutdown();
    }

    /// Kill a worker thread while leaving its sender published and its
    /// cluster entry intact — simulates a crashed worker so tests can
    /// exercise the mid-protocol failure paths.
    #[cfg(test)]
    fn sever_worker(&mut self, node: NodeId) {
        if let Some(s) = self.senders.read().get(&node) {
            let _ = s.send(Msg::Shutdown);
        }
        if let Some(pos) = self.handles.iter().position(|(id, _)| *id == node) {
            let (_, handle) = self.handles.remove(pos);
            let _ = handle.join();
        }
    }
}

impl ReconfigEngine for Runtime {
    /// Quiesce until every tuple injected so far has fully traversed the
    /// topology ([`Runtime::quiesce`]; one round when the plane was
    /// already quiet). Batches recovered from terminated workers'
    /// channels re-enter routing first, so they are settled and measured
    /// like any other in-flight tuple.
    fn settle(&mut self) {
        self.drain_graveyard();
        self.quiesce();
    }

    fn terminate_drained(&mut self) -> Vec<NodeId> {
        Runtime::terminate_drained(self)
    }

    fn end_period(&mut self) -> PeriodStats {
        Runtime::end_period(self)
    }

    fn view(&self) -> ClusterView<'_> {
        ClusterView {
            cluster: &self.cluster,
            cost: &self.cost,
        }
    }

    fn apply(&mut self, plan: &ReconfigPlan) -> ApplyReport {
        Runtime::apply(self, plan)
    }

    fn reconfig_mode(&self) -> ReconfigMode {
        self.mode
    }

    fn apply_epoch(&mut self, plan: &ReconfigPlan) -> ApplyReport {
        self.execute(plan, ReconfigMode::Epoch)
    }

    fn history(&self) -> &[PeriodRecord] {
        Runtime::history(self)
    }

    fn inject_fault(&mut self, node: NodeId) -> bool {
        Runtime::inject_fault(self, node)
    }

    fn drop_socket(&mut self, node: NodeId) -> bool {
        Runtime::drop_socket(self, node)
    }

    fn recover(&mut self) -> RecoveryReport {
        Runtime::recover(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Counting, Identity};
    use crate::topology::TopologyBuilder;
    use crate::tuple::{hash_key, Value};

    fn two_op_topology() -> (Topology, OperatorId, OperatorId) {
        let mut b = TopologyBuilder::new();
        let src = b.source("src", 4, Arc::new(Identity));
        let cnt = b.operator("count", 4, Arc::new(Counting));
        b.edge(src, cnt);
        (b.build().unwrap(), src, cnt)
    }

    /// In-process workers with the default cost model.
    fn start_in_process(
        topology: Topology,
        cluster: Cluster,
        routing: RoutingTable,
        cfg: RuntimeConfig,
    ) -> Runtime {
        let (cost, options) = (CostModel::default(), TransportOptions::InProcess);
        Runtime::start_with_options(topology, cluster, routing, cost, cfg, options)
            .expect("in-process workers start without I/O")
    }

    fn two_op_runtime(nodes: usize) -> (Runtime, OperatorId, OperatorId) {
        two_op_runtime_config(nodes, RuntimeConfig::default())
    }

    fn two_op_runtime_config(
        nodes: usize,
        cfg: RuntimeConfig,
    ) -> (Runtime, OperatorId, OperatorId) {
        let (topology, src, cnt) = two_op_topology();
        let cluster = Cluster::homogeneous(nodes);
        let nodes: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id).collect();
        let routing = RoutingTable::round_robin(topology.num_key_groups(), &nodes);
        let rt = start_in_process(topology, cluster, routing, cfg);
        (rt, src, cnt)
    }

    #[test]
    fn tuples_flow_through_the_topology() {
        let (mut rt, src, _) = two_op_runtime(2);
        let tuples: Vec<Tuple> = (0..100)
            .map(|i| Tuple::keyed(&(i % 10), Value::Int(i), i as u64))
            .collect();
        rt.inject(src, tuples);
        rt.quiesce();
        let stats = rt.end_period();
        // 100 tuples at the source + 100 at the counter.
        assert!(
            (stats.total_tuples - 200.0).abs() < 1e-9,
            "{}",
            stats.total_tuples
        );
        assert!(stats.comm_tuples >= 100.0);
        assert_eq!(stats.dropped_tuples, 0.0);
        rt.shutdown();
    }

    #[test]
    fn batch_size_one_and_tiny_capacity_lose_nothing() {
        // The degenerate per-tuple configuration and a deliberately
        // starved channel both deliver the exact multiset.
        for cfg in [
            RuntimeConfig {
                batch_size: 1,
                ..Default::default()
            },
            RuntimeConfig {
                batch_size: 8,
                channel_capacity: 2,
                ..Default::default()
            },
        ] {
            let (mut rt, src, _) = two_op_runtime_config(2, cfg);
            rt.inject(
                src,
                (0..300).map(|i| Tuple::keyed(&(i % 10), Value::Int(i), i as u64)),
            );
            rt.quiesce();
            let stats = rt.end_period();
            assert!(
                (stats.total_tuples - 600.0).abs() < 1e-9,
                "cfg {cfg:?}: {}",
                stats.total_tuples
            );
            assert_eq!(stats.dropped_tuples, 0.0, "cfg {cfg:?}");
            rt.shutdown();
        }
    }

    #[test]
    fn pressure_signal_reports_ingest_emit_and_depth() {
        // 3 nodes: a key's source group (h%4) and counter group (4+h%4)
        // land on different nodes, so the src→cnt hop crosses workers.
        let (mut rt, src, _) = two_op_runtime(3);
        rt.inject(
            src,
            (0..200).map(|i| Tuple::keyed(&(i % 10), Value::Int(i), i as u64)),
        );
        rt.quiesce();
        let stats = rt.end_period();
        assert_eq!(stats.pressure.len(), 3, "one pressure entry per worker");
        let ingested: f64 = stats.pressure.values().map(|p| p.ingested).sum();
        let emitted: f64 = stats.pressure.values().map(|p| p.emitted).sum();
        // Every injected tuple is ingested at least once; forwarded ones
        // again at their destination.
        assert!(ingested >= 200.0, "ingested {ingested}");
        assert!(emitted > 0.0, "cross-worker traffic must be counted");
        // Quiesced: nothing left in any queue.
        assert_eq!(stats.max_queue_depth(), 0);
        // Counters reset between periods.
        let stats2 = rt.end_period();
        let ingested2: f64 = stats2.pressure.values().map(|p| p.ingested).sum();
        assert_eq!(ingested2, 0.0);
        rt.shutdown();
    }

    #[test]
    fn migration_preserves_counter_state() {
        let (mut rt, src, cnt) = two_op_runtime(2);
        let key = 3i32;
        rt.inject(
            src,
            (0..50).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        rt.quiesce();
        let _ = rt.end_period();

        // Move the counter's key group to the other node.
        let kg = rt.topology().group_for_key(cnt, hash_key(&key));
        let from = rt.routing_snapshot().node_of(kg);
        let to = rt
            .cluster()
            .nodes()
            .iter()
            .map(|n| n.id)
            .find(|&n| n != from)
            .unwrap();
        let report = rt.migrate(&[Migration { group: kg, to }]);
        assert_eq!(report.migrations.len(), 1);
        assert!(report.failed.is_empty());
        assert_eq!(report.migrations[0].from, from);
        assert_eq!(report.migrations[0].to, to);
        assert_eq!(report.migrations[0].state_bytes, 8, "u64 counter state");
        assert_eq!(rt.routing_snapshot().node_of(kg), to);

        // Continue the stream; the count must continue from 50.
        rt.inject(
            src,
            (50..60).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        rt.quiesce();
        let bytes = rt.probe_state(kg).expect("state exists on destination");
        let mut arr = [0u8; 8];
        arr.copy_from_slice(&bytes[..8]);
        assert_eq!(u64::from_le_bytes(arr), 60, "state survived the migration");
        rt.shutdown();
    }

    #[test]
    fn in_flight_tuples_are_forwarded_not_lost() {
        let (mut rt, src, cnt) = two_op_runtime(2);
        let key = 7i32;
        // Interleave injections with a migration; every tuple must be
        // counted exactly once regardless of timing.
        rt.inject(
            src,
            (0..200).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        let kg = rt.topology().group_for_key(cnt, hash_key(&key));
        let from = rt.routing_snapshot().node_of(kg);
        let to = rt
            .cluster()
            .nodes()
            .iter()
            .map(|n| n.id)
            .find(|&n| n != from)
            .unwrap();
        let _ = rt.migrate(&[Migration { group: kg, to }]);
        rt.inject(
            src,
            (200..300).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        rt.quiesce();

        let bytes = rt.probe_state(kg).expect("state present");
        let mut arr = [0u8; 8];
        arr.copy_from_slice(&bytes[..8]);
        assert_eq!(
            u64::from_le_bytes(arr),
            300,
            "every tuple counted exactly once"
        );
        rt.shutdown();
    }

    #[test]
    fn epoch_migration_preserves_counter_state() {
        let (mut rt, src, cnt) = two_op_runtime(2);
        rt.set_reconfig_mode(ReconfigMode::Epoch);
        let key = 3i32;
        rt.inject(
            src,
            (0..50).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        rt.quiesce();
        let _ = rt.end_period();

        let kg = rt.topology().group_for_key(cnt, hash_key(&key));
        let from = rt.routing_snapshot().node_of(kg);
        let to = rt
            .cluster()
            .nodes()
            .iter()
            .map(|n| n.id)
            .find(|&n| n != from)
            .unwrap();
        let report = rt.migrate(&[Migration { group: kg, to }]);
        assert_eq!(report.migrations.len(), 1);
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        assert_eq!(report.migrations[0].from, from);
        assert_eq!(report.migrations[0].to, to);
        assert_eq!(report.migrations[0].state_bytes, 8, "u64 counter state");
        assert_eq!(rt.routing_snapshot().node_of(kg), to);

        rt.inject(
            src,
            (50..60).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        rt.quiesce();
        let bytes = rt.probe_state(kg).expect("state exists on destination");
        let mut arr = [0u8; 8];
        arr.copy_from_slice(&bytes[..8]);
        assert_eq!(u64::from_le_bytes(arr), 60, "state survived the wave");
        rt.shutdown();
    }

    #[test]
    fn epoch_migration_with_tuples_in_flight_is_exactly_once() {
        // Inject, start the wave with the stream un-settled, keep
        // injecting — every tuple must be counted exactly once whether
        // it crossed the barrier before or after the flip.
        let (mut rt, src, cnt) = two_op_runtime(2);
        rt.set_reconfig_mode(ReconfigMode::Epoch);
        let key = 7i32;
        rt.inject(
            src,
            (0..200).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        let kg = rt.topology().group_for_key(cnt, hash_key(&key));
        let from = rt.routing_snapshot().node_of(kg);
        let to = rt
            .cluster()
            .nodes()
            .iter()
            .map(|n| n.id)
            .find(|&n| n != from)
            .unwrap();
        let report = rt.migrate(&[Migration { group: kg, to }]);
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        rt.inject(
            src,
            (200..300).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        rt.quiesce();

        let bytes = rt.probe_state(kg).expect("state present");
        let mut arr = [0u8; 8];
        arr.copy_from_slice(&bytes[..8]);
        assert_eq!(
            u64::from_le_bytes(arr),
            300,
            "every tuple counted exactly once across the wave"
        );
        rt.shutdown();
    }

    #[test]
    fn charged_pause_is_the_sum_under_quiesce_and_the_slowest_move_under_epoch() {
        // Two equal-sized moves in one plan, applied through the trait the
        // controller calls: the runtime's own mode picks the charge — the
        // sum of the pauses stop-the-world, the slowest move for a bare
        // wave (edge-local concurrency) — while the report carries both
        // moves for cost accounting either way.
        for mode in [ReconfigMode::Quiesce, ReconfigMode::Epoch] {
            let (mut rt, src, cnt) = two_op_runtime(2);
            rt.configure_recovery(1, DEFAULT_REPLAY_LOG_CAPACITY);
            rt.set_reconfig_mode(mode);
            let k1 = 3i32;
            let g1 = rt.topology().group_for_key(cnt, hash_key(&k1));
            let k2 = (0..64i32)
                .find(|k| rt.topology().group_for_key(cnt, hash_key(k)) != g1)
                .expect("some key lands in another group");
            for k in [k1, k2] {
                rt.inject(src, (0..20).map(|i| Tuple::keyed(&k, Value::Int(i), 0)));
            }
            rt.quiesce();
            let _ = rt.end_period();
            let mut plan = ReconfigPlan::noop();
            for k in [k1, k2] {
                let kg = rt.topology().group_for_key(cnt, hash_key(&k));
                let from = rt.routing_snapshot().node_of(kg);
                let to = rt
                    .cluster()
                    .nodes()
                    .iter()
                    .map(|n| n.id)
                    .find(|&n| n != from)
                    .unwrap();
                plan.migrations.push(Migration { group: kg, to });
            }
            let report = ReconfigEngine::apply(&mut rt, &plan);
            assert_eq!(report.migrations.len(), 2, "{mode:?}: {:?}", report.failed);
            let max_pause = report
                .migrations
                .iter()
                .map(|m| m.pause_secs)
                .fold(0.0, f64::max);
            assert!(report.total_pause_secs() > max_pause, "sum exceeds max");
            let expected = match mode {
                ReconfigMode::Quiesce => report.total_pause_secs(),
                ReconfigMode::Epoch => max_pause,
            };
            let rec = rt.history().last().unwrap();
            assert_eq!(rec.migrations, 2, "{mode:?}");
            assert_eq!(rec.migration_pause_secs, expected, "{mode:?}");
            rt.shutdown();
        }
    }

    #[test]
    fn noop_barrier_waves_stream_through_under_load() {
        // A small barrier interval keeps no-op epoch waves continuously
        // in flight between data batches; they must align, move nothing,
        // and lose nothing.
        let cfg = RuntimeConfig {
            barrier_interval: 32,
            ..Default::default()
        };
        let (mut rt, src, cnt) = two_op_runtime_config(2, cfg);
        rt.set_reconfig_mode(ReconfigMode::Epoch);
        let routing_before = rt.routing_snapshot();
        let key = 5i32;
        for chunk in 0..10 {
            rt.inject(
                src,
                (chunk * 50..(chunk + 1) * 50).map(|i| Tuple::keyed(&key, Value::Int(i), 0)),
            );
        }
        rt.quiesce();
        let kg = rt.topology().group_for_key(cnt, hash_key(&key));
        let bytes = rt.probe_state(kg).expect("state present");
        let mut arr = [0u8; 8];
        arr.copy_from_slice(&bytes[..8]);
        assert_eq!(u64::from_le_bytes(arr), 500, "no tuple lost to a wave");
        let stats = rt.end_period();
        assert_eq!(stats.dropped_tuples, 0.0);
        // No-op waves flip nothing, authoritatively or locally.
        assert_eq!(
            rt.routing_snapshot().assignment(),
            routing_before.assignment()
        );
        rt.shutdown();
    }

    #[test]
    fn epoch_wave_racing_a_crash_aborts_cleanly() {
        // Kill a wave participant with the barrier in flight: the raw
        // Crash message races the EpochBarrier in the victim's inbox, so
        // either the pre-round already fails or the coordinator detects
        // the corpse mid-wave and aborts. In every interleaving the call
        // must return (no hang), account for the move, keep routing
        // consistent, and leave the cluster recoverable.
        let (mut rt, src, cnt) = two_op_runtime(3);
        rt.set_reconfig_mode(ReconfigMode::Epoch);
        let key = 9i32;
        rt.inject(
            src,
            (0..100).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        let kg = rt.topology().group_for_key(cnt, hash_key(&key));
        let from = rt.routing_snapshot().node_of(kg);
        let to = rt
            .cluster()
            .nodes()
            .iter()
            .map(|n| n.id)
            .find(|&n| n != from)
            .unwrap();
        // Crash the destination without waiting for the death, so the
        // wave and the crash genuinely race.
        let victim_sender = rt.senders.read().get(&to).cloned().unwrap();
        assert!(victim_sender.send(Msg::Crash).is_ok());
        let report = rt.migrate(&[Migration { group: kg, to }]);
        assert_eq!(
            report.migrations.len() + report.failed.len(),
            1,
            "the move is accounted either way"
        );
        let owner = rt.routing_snapshot().node_of(kg);
        assert!(owner == from || owner == to, "routing stays consistent");
        let recovery = rt.recover();
        assert_eq!(recovery.failed, vec![to], "the corpse was recovered");
        rt.quiesce();
        assert!(
            rt.cluster().get(to).is_none(),
            "the victim left the cluster"
        );
        rt.shutdown();
    }

    #[test]
    fn stats_reset_between_periods() {
        let (mut rt, src, _) = two_op_runtime(1);
        rt.inject(src, (0..10).map(|i| Tuple::keyed(&i, Value::Int(i), 0)));
        rt.quiesce();
        let s1 = rt.end_period();
        assert!(s1.total_tuples > 0.0);
        let s2 = rt.end_period();
        assert_eq!(s2.total_tuples, 0.0, "second period saw no traffic");
        rt.shutdown();
    }

    #[test]
    fn probe_missing_state_is_none() {
        let (rt, _, cnt) = two_op_runtime(1);
        let kg = rt.topology().group_for_key(cnt, hash_key(&"never-seen"));
        assert!(rt.probe_state(kg).is_none());
        rt.shutdown();
    }

    #[test]
    fn end_period_records_history() {
        let (mut rt, src, _) = two_op_runtime(2);
        rt.inject(src, (0..20).map(|i| Tuple::keyed(&i, Value::Int(i), 0)));
        rt.quiesce();
        rt.end_period();
        rt.end_period();
        assert_eq!(rt.history().len(), 2);
        assert_eq!(rt.history()[0].period, 0);
        assert_eq!(rt.history()[0].num_nodes, 2);
        assert!(rt.history()[0].total_system_load > 0.0);
        assert_eq!(rt.history()[0].dropped_tuples, 0.0);
        // Resident state persists, but the second period saw no traffic.
        assert_eq!(rt.history()[1].period, 1);
        assert!(rt.history()[1].total_system_load <= rt.history()[0].total_system_load);
        rt.shutdown();
    }

    #[test]
    fn apply_scales_out_onto_a_live_worker() {
        let (mut rt, src, cnt) = two_op_runtime(1);
        rt.inject(
            src,
            (0..40).map(|i| Tuple::keyed(&(i % 8), Value::Int(i), i as u64)),
        );
        rt.quiesce();
        rt.end_period();

        // Scale out by one node and move half the counter's groups there —
        // exactly what an integrated plan produced by the framework does.
        let new_id = rt.cluster().peek_next_ids(1)[0];
        let groups = rt.routing_snapshot().groups_on(NodeId::new(0));
        let moves: Vec<Migration> = groups
            .iter()
            .filter(|kg| rt.topology().operator_of_group(**kg) == cnt)
            .map(|&group| Migration { group, to: new_id })
            .collect();
        assert!(!moves.is_empty());
        let report = rt.apply(&ReconfigPlan {
            migrations: moves.clone(),
            add_nodes: vec![1.0],
            mark_removal: vec![],
        });
        assert_eq!(report.added, vec![new_id]);
        assert_eq!(report.migrations.len(), moves.len());
        assert!(report.failed.is_empty());
        assert_eq!(rt.cluster().len(), 2);
        assert_eq!(rt.history().last().unwrap().num_nodes, 2);

        // The new worker really processes: keep streaming and check that
        // state keeps accumulating on the migrated groups.
        rt.inject(
            src,
            (0..40).map(|i| Tuple::keyed(&(i % 8), Value::Int(i), i as u64)),
        );
        rt.quiesce();
        let stats = rt.end_period();
        assert!(stats.load_of(new_id) > 0.0, "new node must carry load");
        rt.shutdown();
    }

    #[test]
    fn marked_worker_drains_and_its_thread_joins() {
        let (mut rt, src, _) = two_op_runtime(2);
        rt.inject(
            src,
            (0..60).map(|i| Tuple::keyed(&(i % 8), Value::Int(i), i as u64)),
        );
        rt.quiesce();
        rt.end_period();

        // Mark node 1, drain it with real migrations, then terminate.
        let victim = NodeId::new(1);
        let report = rt.apply(&ReconfigPlan {
            migrations: vec![],
            add_nodes: vec![],
            mark_removal: vec![victim],
        });
        assert_eq!(report.marked, vec![victim]);
        assert!(
            rt.terminate_drained().is_empty(),
            "victim still hosts groups"
        );

        let moves: Vec<Migration> = rt
            .routing_snapshot()
            .groups_on(victim)
            .into_iter()
            .map(|group| Migration {
                group,
                to: NodeId::new(0),
            })
            .collect();
        let report = rt.migrate(&moves);
        assert_eq!(report.migrations.len(), moves.len());
        assert_eq!(rt.terminate_drained(), vec![victim]);
        assert_eq!(rt.cluster().len(), 1);
        assert!(rt.cluster().get(victim).is_none());

        // The survivor still processes everything, including the moved keys.
        rt.inject(
            src,
            (0..30).map(|i| Tuple::keyed(&(i % 8), Value::Int(i), i as u64)),
        );
        rt.quiesce();
        let stats = rt.end_period();
        assert!((stats.total_tuples - 60.0).abs() < 1e-9, "30 src + 30 cnt");
        rt.shutdown();
    }

    /// Run `body` on its own thread and fail the test if it has not
    /// finished within `limit`, so a hung wait fails instead of stalling
    /// the suite. A panic in `body` is re-raised here.
    fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
        let (done_tx, done_rx) = unbounded();
        let handle = std::thread::spawn(move || {
            let _ = done_tx.send(body());
        });
        match done_rx.recv_timeout(limit) {
            Ok(v) => v,
            Err(RecvTimeoutError::Timeout) => panic!("still waiting after {limit:?}"),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(handle.join().expect_err("body panicked"))
            }
        }
    }

    #[test]
    fn gather_returns_short_when_a_watched_worker_is_dead() {
        let got = within(Duration::from_secs(10), || {
            let (mut rt, _, _) = two_op_runtime(2);
            let (alive, dead) = (NodeId::new(0), NodeId::new(1));
            rt.sever_worker(dead);
            // The held sender stands in for the crashed worker's copy in
            // its parked inbox: the channel never disconnects, so only
            // the liveness check can end the wait.
            let (graveyard, rx) = unbounded::<u32>();
            let none = rt.gather_n(&rx, 2, &[alive, dead]);
            // A reply that raced the death is still taken.
            graveyard.send(7).unwrap();
            let raced = rt.gather_n(&rx, 2, &[alive, dead]);
            rt.shutdown();
            (none, raced)
        });
        assert_eq!(got, (vec![], vec![7]));
    }

    #[test]
    fn wait_reply_returns_none_when_the_worker_is_dead() {
        let got = within(Duration::from_secs(10), || {
            let (mut rt, _, _) = two_op_runtime(2);
            let dead = NodeId::new(1);
            rt.sever_worker(dead);
            let (graveyard, rx) = unbounded::<u32>();
            let none = rt.wait_reply(&rx, &[dead]);
            graveyard.send(7).unwrap();
            let raced = rt.wait_reply(&rx, &[dead]);
            rt.shutdown();
            (none, raced)
        });
        assert_eq!(got, (None, Some(7)));
    }

    #[test]
    fn a_wave_publishes_all_its_flips_under_one_routing_version() {
        // Workers flip their caches at the barrier and re-sync whenever
        // the version moves; one bump per move would let a cache refresh
        // into a half-flipped table and undo the flips not yet published.
        let (mut rt, _, _) = two_op_runtime(2);
        let moves: Vec<Migration> = rt
            .routing_snapshot()
            .groups_on(NodeId::new(0))
            .into_iter()
            .map(|group| Migration {
                group,
                to: NodeId::new(1),
            })
            .collect();
        assert!(moves.len() >= 2);
        let before = rt.routing.version();
        let report = rt.migrate(&moves);
        assert_eq!(report.migrations.len(), moves.len());
        assert_eq!(rt.routing.version(), before + 1);
        assert!(rt.routing_snapshot().groups_on(NodeId::new(0)).is_empty());
        rt.shutdown();
    }

    #[test]
    fn migration_to_dead_worker_is_surfaced_and_state_survives() {
        let (mut rt, src, cnt) = two_op_runtime(2);
        let key = 5i32;
        rt.inject(
            src,
            (0..40).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        rt.quiesce();
        rt.end_period();

        let kg = rt.topology().group_for_key(cnt, hash_key(&key));
        let from = rt.routing_snapshot().node_of(kg);
        let to = if from == NodeId::new(0) {
            NodeId::new(1)
        } else {
            NodeId::new(0)
        };
        // Kill the destination worker thread while its sender stays
        // published — the move must fail before any state leaves the
        // source, and the failure must be surfaced, not swallowed.
        rt.sever_worker(to);
        let report = rt.migrate(&[Migration { group: kg, to }]);
        assert!(report.migrations.is_empty());
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].group, kg);
        assert_eq!(
            report.failed[0].reason,
            MigrationFailure::DestinationUnavailable
        );
        // Routing points back at the source and the state is intact there.
        assert_eq!(rt.routing_snapshot().node_of(kg), from);
        let bytes = rt.probe_state(kg).expect("state still on the source");
        let mut arr = [0u8; 8];
        arr.copy_from_slice(&bytes[..8]);
        assert_eq!(u64::from_le_bytes(arr), 40, "no tuples lost");
        rt.shutdown();
    }

    #[test]
    fn undeliverable_tuples_are_counted_not_silently_dropped() {
        // Regression test for the old `let _ = s.send(..)` silent drop:
        // tuples aimed at a dead worker must show up in the period's
        // dropped counter, on both the ingestion edge (inject) and the
        // worker forwarding edge (dispatch).
        let (mut rt, src, cnt) = two_op_runtime(3);
        // Find a key whose source group and counter group live on
        // *different* nodes, so the src→cnt hop crosses workers.
        let (key, src_node, cnt_node) = (0..200i32)
            .find_map(|k| {
                let h = hash_key(&k);
                let skg = rt.topology().group_for_key(src, h);
                let ckg = rt.topology().group_for_key(cnt, h);
                let routing = rt.routing_snapshot();
                let (a, b) = (routing.node_of(skg), routing.node_of(ckg));
                (a != b).then_some((k, a, b))
            })
            .expect("round-robin must split some key across nodes");

        // Kill the counter-side worker: the source worker's forwarded
        // batch cannot be delivered.
        rt.sever_worker(cnt_node);
        rt.inject(
            src,
            (0..10).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        rt.quiesce();
        let stats = rt.end_period();
        assert!(
            stats.dropped_tuples >= 10.0,
            "forwarded tuples to the dead worker must be counted, got {}",
            stats.dropped_tuples
        );
        assert_eq!(
            rt.history().last().unwrap().dropped_tuples,
            stats.dropped_tuples
        );

        // Ingestion edge: injecting straight at a group hosted on the dead
        // worker exhausts the retry attempts and is counted too.
        let src_on_dead = src_node == cnt_node;
        assert!(!src_on_dead);
        let dead_key = (0..200i32)
            .find(|k| {
                let skg = rt.topology().group_for_key(src, hash_key(k));
                rt.routing_snapshot().node_of(skg) == cnt_node
            })
            .expect("some source group lives on the severed node");
        rt.inject(
            src,
            (0..5).map(|i| Tuple::keyed(&dead_key, Value::Int(i), i as u64)),
        );
        let stats = rt.end_period();
        assert!(
            stats.dropped_tuples >= 5.0,
            "injected tuples to the dead worker must be counted, got {}",
            stats.dropped_tuples
        );
        rt.shutdown();
    }

    #[test]
    fn concurrent_injectors_deliver_every_tuple() {
        let (mut rt, src, _) = two_op_runtime(2);
        let threads = 4;
        let per_thread = 500i64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let inj = rt.injector();
                std::thread::spawn(move || {
                    inj.inject(
                        src,
                        (0..per_thread)
                            .map(|i| Tuple::keyed(&(i % 16), Value::Int(t * per_thread + i), 0)),
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        rt.quiesce();
        let stats = rt.end_period();
        let expected = (threads * per_thread * 2) as f64; // src + cnt
        assert!(
            (stats.total_tuples - expected).abs() < 1e-9,
            "expected {expected}, got {}",
            stats.total_tuples
        );
        assert_eq!(stats.dropped_tuples, 0.0);
        rt.shutdown();
    }

    /// A test operator whose state grows with every tuple, to catch stale
    /// state-size reporting after migration.
    #[derive(Debug, Default)]
    struct Appending;

    impl crate::operator::Operator for Appending {
        fn name(&self) -> &str {
            "appending"
        }
        fn new_state(&self) -> StateBox {
            Box::new(Vec::<u8>::new())
        }
        fn serialize_state(&self, state: &StateBox) -> Vec<u8> {
            state.downcast_ref::<Vec<u8>>().expect("vec state").clone()
        }
        fn deserialize_state(&self, bytes: &[u8]) -> StateBox {
            Box::new(bytes.to_vec())
        }
        fn process(&self, _tuple: &Tuple, state: &mut StateBox, _out: &mut Emissions) {
            state.downcast_mut::<Vec<u8>>().expect("vec state").push(1);
        }
    }

    #[test]
    fn migrated_group_reports_fresh_state_size_not_the_stale_source_entry() {
        let mut b = TopologyBuilder::new();
        let op = b.source("grow", 2, Arc::new(Appending));
        let topology = b.build().unwrap();
        let cluster = Cluster::homogeneous(2);
        let routing = RoutingTable::all_on(topology.num_key_groups(), NodeId::new(0));
        let mut rt = start_in_process(topology, cluster, routing, RuntimeConfig::default());

        let key = 1i32;
        rt.inject(op, (0..5).map(|i| Tuple::keyed(&key, Value::Int(i), 0)));
        rt.quiesce();
        let kg = rt.topology().group_for_key(op, hash_key(&key));
        let stats = rt.end_period();
        assert_eq!(stats.group_state_bytes[kg.index()], 5.0);

        // Move the group, grow the state on the destination, and re-check:
        // the merged period stats must report the destination's fresh size,
        // not the source's stale pre-migration entry.
        let _ = rt.migrate(&[Migration {
            group: kg,
            to: NodeId::new(1),
        }]);
        rt.inject(op, (0..3).map(|i| Tuple::keyed(&key, Value::Int(i), 1)));
        rt.quiesce();
        let stats = rt.end_period();
        assert_eq!(
            stats.group_state_bytes[kg.index()],
            8.0,
            "stale source entry must not shadow the grown state"
        );
        rt.shutdown();
    }

    /// Read a `Counting` group's u64 state (0 when absent).
    fn count_of(rt: &Runtime, kg: KeyGroupId) -> u64 {
        rt.probe_state(kg)
            .map(|b| {
                let mut arr = [0u8; 8];
                arr.copy_from_slice(&b[..8]);
                u64::from_le_bytes(arr)
            })
            .unwrap_or(0)
    }

    #[test]
    fn crash_recovery_restores_checkpoint_and_replays_the_delta() {
        let (mut rt, src, cnt) = two_op_runtime(2);
        rt.configure_recovery(1, DEFAULT_REPLAY_LOG_CAPACITY);
        let key = 9i32;
        let kg = rt.topology().group_for_key(cnt, hash_key(&key));

        // 50 tuples into the checkpoint, 30 into the post-checkpoint log.
        rt.inject(
            src,
            (0..50).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        rt.quiesce();
        let _ = rt.end_period(); // checkpoint covers the 50
        rt.inject(
            src,
            (50..80).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        rt.quiesce();

        // Kill the worker hosting the counter group: its state (80) dies
        // with it.
        let victim = rt.routing_snapshot().node_of(kg);
        assert!(rt.inject_fault(victim));
        assert!(!rt.inject_fault(victim), "double-kill is rejected");

        let report = rt.recover();
        assert_eq!(report.failed, vec![victim]);
        assert!(report.groups_restored > 0);
        assert_eq!(report.tuples_replayed, 30);
        assert_eq!(report.checkpoint_period, Some(0));
        assert_eq!(report.log_truncated, 0);
        assert!(report.recovery_secs > 0.0);

        // Exactly-once across the recovery: checkpoint (50) + delta (30).
        let survivor = rt.routing_snapshot().node_of(kg);
        assert_ne!(survivor, victim);
        assert!(rt.cluster().get(victim).is_none(), "corpse released");
        assert_eq!(count_of(&rt, kg), 80, "state equals the fault-free run");

        // The recovered pipeline keeps processing, with clean accounting.
        rt.inject(
            src,
            (80..100).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        rt.quiesce();
        let stats = rt.end_period();
        assert_eq!(stats.dropped_tuples, 0.0);
        assert_eq!(count_of(&rt, kg), 100);
        let rec = rt.history().last().unwrap();
        assert_eq!(rec.failed_nodes, 1);
        assert_eq!(rec.groups_restored, report.groups_restored);
        assert_eq!(rec.tuples_replayed, 30.0);
        assert!(rec.recovery_secs > 0.0);
        rt.shutdown();
    }

    /// A checkpoint captured while a producer thread injects is a
    /// consistent cut: every tuple is either in the captured state or in
    /// the replay log, never lost between the two. One injector sends
    /// 3 000 tuples of one key, 5 per call, while the coordinator loops
    /// over settles and period boundaries (a capture at each); then the
    /// counter's worker is killed and recovered. Returns the longest
    /// `inject` call seen, which is the longest producer stall a due
    /// capture caused.
    fn checkpoint_racing_an_injector(mode: CheckpointMode) -> Duration {
        within(Duration::from_secs(300), move || {
            let mut longest = Duration::ZERO;
            for _ in 0..40 {
                let (mut rt, src, cnt) = two_op_runtime(2);
                rt.configure_checkpointing(mode, None).unwrap();
                rt.configure_recovery(1, DEFAULT_REPLAY_LOG_CAPACITY);
                let kg = rt.topology().group_for_key(cnt, hash_key(&7u64));
                let injector = rt.injector();
                let producer = std::thread::spawn(move || {
                    let mut longest = Duration::ZERO;
                    for call in 0..600u64 {
                        let t0 = Instant::now();
                        injector.inject(
                            src,
                            (0..5).map(|i| Tuple::keyed(&7u64, Value::Int(i), call)),
                        );
                        longest = longest.max(t0.elapsed());
                    }
                    longest
                });
                while !producer.is_finished() {
                    rt.quiesce();
                    let _ = rt.end_period();
                }
                longest = longest.max(producer.join().unwrap());
                rt.quiesce();
                assert!(rt.inject_fault(rt.routing_snapshot().node_of(kg)));
                let report = rt.recover();
                rt.quiesce();
                let replayed = report.tuples_replayed;
                assert_eq!(count_of(&rt, kg), 3_000, "{replayed} tuples replayed");
                rt.shutdown();
            }
            println!("longest producer stall per due capture ({mode:?}): {longest:?}");
            longest
        })
    }

    #[test]
    fn a_checkpoint_racing_an_injector_recovers_every_tuple() {
        checkpoint_racing_an_injector(CheckpointMode::Full);
    }

    #[test]
    fn a_checkpoint_racing_an_injector_recovers_every_tuple_incrementally() {
        checkpoint_racing_an_injector(CheckpointMode::Incremental);
    }

    #[test]
    fn recovery_without_checkpointing_is_availability_only() {
        let (mut rt, src, cnt) = two_op_runtime(2);
        let key = 4i32;
        rt.inject(
            src,
            (0..40).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        rt.quiesce();
        let kg = rt.topology().group_for_key(cnt, hash_key(&key));
        let victim = rt.routing_snapshot().node_of(kg);
        assert!(rt.inject_fault(victim));
        let report = rt.recover();
        assert_eq!(report.failed, vec![victim]);
        assert_eq!(report.tuples_replayed, 0);
        assert_eq!(report.checkpoint_period, None);
        // The group is re-homed and serviceable, but its state restarted.
        assert_ne!(rt.routing_snapshot().node_of(kg), victim);
        rt.inject(
            src,
            (0..5).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        rt.quiesce();
        assert_eq!(count_of(&rt, kg), 5, "counter restarted from empty");
        rt.shutdown();
    }

    #[test]
    fn truncated_replay_log_is_surfaced_as_dropped() {
        // Overflowing `log_capacity` *within* a period no longer truncates
        // at the soft capacity — the log stretches to its hard ceiling
        // (`REPLAY_LOG_HARD_FACTOR`× capacity) and the next period
        // boundary forces an early capture. Only tuples past the hard
        // ceiling are unreplayable, and those are surfaced, not silently
        // lost.
        let (mut rt, src, _) = two_op_runtime(2);
        rt.configure_recovery(1, 10);
        let _ = rt.end_period();
        let hard = 10 * REPLAY_LOG_HARD_FACTOR as i64;
        rt.inject(
            src,
            (0..hard + 20).map(|i| Tuple::keyed(&(i % 4), Value::Int(i), i as u64)),
        );
        rt.quiesce();
        assert!(rt.inject_fault(NodeId::new(1)));
        let report = rt.recover();
        assert_eq!(report.tuples_replayed, hard as u64);
        assert_eq!(report.log_truncated, 20);
        let stats = rt.end_period();
        assert!(
            stats.dropped_tuples >= 20.0,
            "unreplayable tuples must be counted, got {}",
            stats.dropped_tuples
        );
        rt.shutdown();
    }

    #[test]
    fn terminate_drained_on_a_crashed_worker_is_a_typed_error_not_a_hang() {
        // Regression: draining quiesces all workers, and a crashed worker
        // (channel open, thread gone) could never acknowledge — the old
        // code blocked forever waiting on it before ever reaching the
        // join handle. Now the condition is surfaced as a typed error.
        let (mut rt, src, _) = two_op_runtime(2);
        rt.inject(
            src,
            (0..40).map(|i| Tuple::keyed(&(i % 8), Value::Int(i), i as u64)),
        );
        rt.quiesce();
        rt.end_period();

        // Mark node 1 and drain it — a legitimate scale-in in progress.
        let victim = NodeId::new(1);
        let _ = rt.apply(&ReconfigPlan {
            migrations: rt
                .routing_snapshot()
                .groups_on(victim)
                .into_iter()
                .map(|group| Migration {
                    group,
                    to: NodeId::new(0),
                })
                .collect(),
            add_nodes: vec![],
            mark_removal: vec![victim],
        });
        // ... then the drained worker crashes before termination.
        assert!(rt.inject_fault(victim));
        assert_eq!(
            rt.try_terminate_drained(),
            Err(TerminateError::WorkerCrashed(victim))
        );
        // The trait path degrades to "nothing terminated this round".
        assert!(Runtime::terminate_drained(&mut rt).is_empty());
        // Recovery clears the condition (the corpse is released there).
        let report = rt.recover();
        assert_eq!(report.failed, vec![victim]);
        assert!(rt.cluster().get(victim).is_none());
        assert_eq!(rt.try_terminate_drained(), Ok(vec![]));
        rt.shutdown();
    }

    #[test]
    fn migration_involving_a_crashed_worker_fails_fast_instead_of_hanging() {
        let (mut rt, src, cnt) = two_op_runtime(2);
        let key = 6i32;
        rt.inject(
            src,
            (0..20).map(|i| Tuple::keyed(&key, Value::Int(i), i as u64)),
        );
        rt.quiesce();
        let kg = rt.topology().group_for_key(cnt, hash_key(&key));
        let from = rt.routing_snapshot().node_of(kg);
        let to = if from == NodeId::new(0) {
            NodeId::new(1)
        } else {
            NodeId::new(0)
        };
        // Crash the destination: unlike sever_worker, the channel stays
        // open, so only the liveness check (not a failing send) can
        // prevent the protocol from waiting forever.
        assert!(rt.inject_fault(to));
        let report = rt.migrate(&[Migration { group: kg, to }]);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(
            report.failed[0].reason,
            MigrationFailure::DestinationUnavailable
        );
        assert_eq!(rt.routing_snapshot().node_of(kg), from);
        assert_eq!(count_of(&rt, kg), 20, "state never left the source");
        rt.shutdown();
    }

    #[test]
    fn migration_to_unknown_node_is_surfaced() {
        let (mut rt, src, cnt) = two_op_runtime(2);
        rt.inject(src, (0..10).map(|i| Tuple::keyed(&1, Value::Int(i), 0)));
        rt.quiesce();
        let kg = rt.topology().group_for_key(cnt, hash_key(&1));
        let report = rt.migrate(&[Migration {
            group: kg,
            to: NodeId::new(77),
        }]);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(
            report.failed[0].reason,
            MigrationFailure::UnknownDestination
        );
        rt.shutdown();
    }

    /// A routed chunk of `rows` visible rows for the source operator.
    fn chunk_of(rows: usize) -> StreamChunk {
        let (topology, src, _) = two_op_topology();
        let mut chunk = StreamChunk::from_tuples(
            (0..rows).map(|i| Tuple::keyed(&(i as u64), Value::Int(i as i64), 0)),
        );
        chunk.assign_groups(src, &topology);
        chunk
    }

    /// Data chunks of `rows` rows each.
    fn chunks(rows: &[usize]) -> Vec<Msg> {
        rows.iter().map(|&n| Msg::DataChunk(chunk_of(n))).collect()
    }

    /// An inbox at `batch_size` holding `msgs` in order, each sent the
    /// way every producer sends.
    fn inbox_of(batch_size: usize, msgs: Vec<Msg>) -> InboxRx {
        let cfg = RuntimeConfig {
            batch_size,
            ..RuntimeConfig::default()
        };
        let (tx, rx) = inbox::channel(&cfg);
        for msg in msgs {
            assert!(tx.send(msg).is_ok());
        }
        rx
    }

    fn rows_of(msg: Result<Msg, TryRecvError>) -> usize {
        match msg {
            Ok(Msg::DataChunk(c)) => c.len(),
            _ => panic!("expected a data chunk"),
        }
    }

    // The inbox's coalescing, as its consumer sees it; `inbox`'s own
    // tests pin what only its internals show.

    #[test]
    fn coalesce_never_exceeds_batch_size() {
        let mut inbox = inbox_of(64, chunks(&[60, 10, 3]));
        assert_eq!(
            rows_of(inbox.try_next()),
            60,
            "60 + 10 rows would pass the batch size"
        );
        assert_eq!(
            inbox.credit.depth(),
            2,
            "the chunk left over keeps its credit"
        );
        assert_eq!(
            rows_of(inbox.try_next()),
            10 + 3,
            "the chunk that does not fit comes next"
        );
        assert_eq!(inbox.credit.depth(), 0);

        // Fill exactly to the batch size, then stop.
        let mut inbox = inbox_of(10, chunks(&[4, 4, 2, 1]));
        assert_eq!(rows_of(inbox.try_next()), 10);
        assert_eq!(inbox.credit.depth(), 1);
        assert_eq!(rows_of(inbox.try_next()), 1);
    }

    #[test]
    fn coalesce_preserves_the_visible_count_of_masked_chunks() {
        let mut head = chunk_of(4);
        head.hide(1);
        let mut next = chunk_of(6);
        next.hide(0);
        next.hide(4);
        let mut inbox = inbox_of(64, vec![Msg::DataChunk(head), Msg::DataChunk(next)]);
        let Ok(Msg::DataChunk(head)) = inbox.try_next() else {
            panic!("expected a data chunk");
        };
        assert_eq!(head.visible_len(), 3 + 4);
        assert!(head.len() <= 64);
        assert!(inbox.try_next().is_err(), "nothing left over");
        assert_eq!(inbox.credit.depth(), 0);
        // Only the masked rows are gone: the visible rows are the
        // head's, then the next chunk's, in order.
        let keys: Vec<u64> = head.to_tuples().iter().map(|t| t.key).collect();
        let expect: Vec<u64> = [0, 2, 3]
            .into_iter()
            .chain([1, 2, 3, 5])
            .map(|i: u64| chunk_of(6).key_at(i as usize))
            .collect();
        assert_eq!(keys, expect);
    }

    #[test]
    fn coalesce_merges_nothing_at_batch_size_one() {
        let mut inbox = inbox_of(1, chunks(&[1, 1, 1]));
        assert_eq!(rows_of(inbox.try_next()), 1);
        assert_eq!(inbox.credit.depth(), 2);
    }

    /// Run a one-node worker over `msgs`, all queued before it starts,
    /// then a `Shutdown`. Every group is local and every reply goes
    /// through a channel, so nothing is ever written to `uplink`.
    fn run_lone_worker(mut msgs: Vec<Msg>, uplink: Option<WireOut>) {
        msgs.push(Msg::Shutdown);
        let inbox = inbox_of(RuntimeConfig::default().batch_size, msgs);
        lone_worker(two_op_topology().0, inbox, uplink);
    }

    /// Run a one-node worker on `topology` over `inbox` until its
    /// `Shutdown`.
    fn lone_worker(topology: Topology, inbox: InboxRx, uplink: Option<WireOut>) {
        let node = NodeId::new(0);
        let table = RoutingTable::round_robin(topology.num_key_groups(), &[node]);
        let spawn = WorkerSpawn {
            node,
            inbox,
            topology: Arc::new(topology),
            routing: Arc::new(RoutingShared::new(table)),
            senders: Arc::default(),
            dropped: Arc::default(),
            cfg: RuntimeConfig::default(),
        };
        let _ = WorkerCtx::from_spawn(spawn, uplink).run();
    }

    /// The worker loop handles the message its inbox stopped coalescing
    /// at only after the merged chunk: a statistics collection queued between
    /// short data chunks counts exactly the rows queued ahead of it.
    #[test]
    fn a_control_message_sees_exactly_the_data_queued_ahead_of_it() {
        let (tx, rx) = unbounded();
        let collect = || Msg::CollectStats {
            capture: None,
            reply: ReplyTo::Chan(tx.clone()),
        };
        let mut msgs: Vec<Msg> = (0..3).map(|_| Msg::DataChunk(chunk_of(2))).collect();
        msgs.push(collect());
        msgs.extend((0..2).map(|_| Msg::DataChunk(chunk_of(1))));
        msgs.push(collect());
        run_lone_worker(msgs, None);
        let ingested: Vec<f64> = (0..2).map(|_| rx.recv().unwrap().1.ingested).collect();
        assert_eq!(ingested, vec![6.0, 2.0]);
    }

    /// A lone worker daemon on one end of a socket pair and a controller's
    /// session half on the other. The daemon's reader ([`ReaderLink`])
    /// feeds its inbox, whose credit the uplink's acks leave out; the controller's reader applies those acks and
    /// resolves the daemon's replies. The worker loop runs only from
    /// [`LoneDaemon::start`] on, so a test can fill the window first.
    #[cfg(unix)]
    struct LoneDaemon {
        controller: WireOut,
        /// The controller's socket, for a test to cut.
        socket: std::os::unix::net::UnixStream,
        /// The controller's readers, one per socket; each ends at a cut.
        readers: Vec<std::thread::JoinHandle<crate::transport::wire::LinkEvent>>,
        correlator: Arc<crate::transport::wire::Correlator>,
        /// The daemon's reader.
        link: std::thread::JoinHandle<()>,
        credit: Arc<inbox::Credit>,
        uplink: WireOut,
        /// Until the worker loop takes it.
        inbox: Option<InboxRx>,
    }

    #[cfg(unix)]
    impl LoneDaemon {
        /// `resume_at`: where the daemon re-dials after a cut (a `uds:`
        /// address), or `None` for a link that ends at its first cut.
        fn new(resume_at: Option<String>) -> Self {
            use crate::transport::net::Conn;
            use crate::transport::session::ReconnectPolicy;
            use crate::transport::wire::FrameBuffer;
            use crate::transport::worker::ReaderLink;

            let (ours, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
            let (tx, inbox) = inbox::channel(&RuntimeConfig::default());
            let credit = Arc::clone(&inbox.credit);
            let held = Some(Arc::clone(&credit));
            let uplink = WireOut::new(Conn::Uds(theirs.try_clone().unwrap()), false, held);
            let link = ReaderLink {
                uplink: uplink.clone(),
                routing: Arc::new(RoutingShared::new(RoutingTable::from_assignment(vec![]))),
                tx,
                policy: ReconnectPolicy {
                    attempts: if resume_at.is_some() { 3 } else { 0 },
                    base_backoff: Duration::from_millis(5),
                    max_backoff: Duration::from_millis(20),
                    jitter: 0.0,
                },
                addr: resume_at.unwrap_or_default(),
                node: NodeId::new(0),
                token: String::new(),
            };
            let link = std::thread::spawn(move || link.run(Conn::Uds(theirs), FrameBuffer::new()));
            let mut daemon = LoneDaemon {
                controller: WireOut::new(Conn::Uds(ours.try_clone().unwrap()), false, None),
                socket: ours,
                readers: Vec::new(),
                correlator: Arc::new(crate::transport::wire::Correlator::new()),
                link,
                credit,
                uplink,
                inbox: Some(inbox),
            };
            let conn = Conn::Uds(daemon.socket.try_clone().unwrap());
            daemon.read(conn, FrameBuffer::new());
            daemon
        }

        /// Start a controller reader on `conn`.
        fn read(
            &mut self,
            mut conn: crate::transport::net::Conn,
            mut fb: crate::transport::wire::FrameBuffer,
        ) {
            use crate::transport::wire::{LinkEvent, FRAME_REPLY};
            let (out, correlator) = (self.controller.clone(), Arc::clone(&self.correlator));
            self.readers.push(std::thread::spawn(move || {
                out.pump(&mut conn, &mut fb, |kind, payload| {
                    if kind == FRAME_REPLY {
                        correlator.fire(payload).expect("a reply decodes");
                    }
                    LinkEvent::Keep
                })
            }));
        }

        /// Send one-row chunks, one frame each, then a statistics
        /// collection and a `Shutdown`, from a thread that blocks whenever
        /// the window is full. It returns how long the chunks took to get
        /// out, and the collected statistics.
        fn send(&self, chunks: usize) -> std::thread::JoinHandle<(Duration, StatsReply)> {
            use crate::transport::wire::{encode, encode_with, FRAME_MSG};
            let (out, correlator) = (self.controller.clone(), Arc::clone(&self.correlator));
            std::thread::spawn(move || {
                let t0 = Instant::now();
                for _ in 0..chunks {
                    let frame = encode(&Msg::DataChunk(chunk_of(1)));
                    out.send_frame(FRAME_MSG, &frame)
                        .expect("the session is up");
                }
                let sent = t0.elapsed();
                let (tx, rx) = unbounded();
                let collect = Msg::CollectStats {
                    capture: None,
                    reply: ReplyTo::Chan(tx),
                };
                let frames = [
                    encode_with(&collect, false, Some(&correlator)),
                    encode(&Msg::Shutdown),
                ];
                for frame in frames {
                    out.send_frame(FRAME_MSG, &frame)
                        .expect("the session is up");
                }
                (sent, rx.recv().expect("the daemon answers"))
            })
        }

        /// Block until the daemon's inbox holds `depth` chunks, then check
        /// that it holds still: nothing more arrives.
        fn fill_to(&self, depth: usize) {
            while self.credit.depth() < depth {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(self.credit.depth(), depth, "the window admits no more");
        }

        /// Start the worker loop on `topology`.
        fn start(&mut self, topology: Topology) -> std::thread::JoinHandle<()> {
            let (inbox, uplink) = (self.inbox.take().unwrap(), self.uplink.clone());
            std::thread::spawn(move || lone_worker(topology, inbox, Some(uplink)))
        }

        /// The inbox's peak depth so far (resets it).
        fn peak(&self) -> usize {
            let mut pressure = NodePressure::default();
            self.credit.collect_into(&mut pressure);
            pressure.peak_queue_depth
        }

        /// Close the controller's end and join every reader: the
        /// controller's see their socket shut, then the daemon's sees it
        /// closed and, finding nobody to resume with, ends too.
        fn close(self) {
            let LoneDaemon {
                controller,
                socket,
                readers,
                link,
                ..
            } = self;
            controller.close();
            for reader in readers {
                reader.join().expect("the controller's reader ends");
            }
            drop((controller, socket));
            link.join().expect("the daemon's reader ends");
        }
    }

    /// `src` (a [`Sleepy`]) feeding a counter: 200 µs per tuple.
    fn sleepy_topology() -> Topology {
        let mut b = TopologyBuilder::new();
        let src = b.source("src", 4, Arc::new(Sleepy));
        let cnt = b.operator("count", 4, Arc::new(Counting));
        b.edge(src, cnt);
        b.build().unwrap()
    }

    /// A daemon acks a data chunk only once its worker has dequeued it,
    /// so a slow daemon holds the controller's sender to one window: its
    /// inbox never holds more than `SEND_QUEUE_LIMIT` chunks plus the
    /// one-frame burst being sent, and the sender blocks instead, at
    /// least as long as the worker takes to work off all but one window.
    #[cfg(unix)]
    #[test]
    fn a_slow_daemon_holds_its_sender_to_one_window() {
        use crate::transport::session::SEND_QUEUE_LIMIT;
        within(Duration::from_secs(60), || {
            let chunks = 8 * SEND_QUEUE_LIMIT;
            let mut daemon = LoneDaemon::new(None);
            let sender = daemon.send(chunks);
            let worker = daemon.start(sleepy_topology());
            let (sent, (_, stats, _, _)) = sender.join().unwrap();
            worker.join().unwrap();
            assert_eq!(stats.ingested, chunks as f64, "every chunk, once");
            assert!(daemon.peak() <= SEND_QUEUE_LIMIT + 1, "{}", daemon.peak());
            // Chunk i goes out only once chunk i - SEND_QUEUE_LIMIT - 1 is
            // acked, so dequeued, so the chunk before it fully processed.
            let floor = Duration::from_micros(200) * (chunks - SEND_QUEUE_LIMIT - 2) as u32;
            assert!(sent >= floor, "the sender waited {sent:?}, under {floor:?}");
            daemon.close();
        });
    }

    /// The drain rule. With the window full and nothing more arriving,
    /// only the daemon's worker, acking as it dequeues, can reopen it: the
    /// sender's last frames (fewer than `ACK_EVERY`) must get out, and
    /// the worker must see every chunk exactly once.
    #[cfg(unix)]
    #[test]
    fn a_draining_daemon_reopens_a_full_window_with_nothing_else_arriving() {
        use crate::transport::session::{ACK_EVERY, SEND_QUEUE_LIMIT};
        within(Duration::from_secs(30), || {
            let chunks = SEND_QUEUE_LIMIT + ACK_EVERY as usize / 2;
            let mut daemon = LoneDaemon::new(None);
            let sender = daemon.send(chunks);
            daemon.fill_to(SEND_QUEUE_LIMIT);
            assert!(!sender.is_finished(), "the sender waits for room");
            let worker = daemon.start(two_op_topology().0);
            let (_, (_, stats, _, _)) = sender.join().unwrap();
            worker.join().unwrap();
            assert_eq!(stats.ingested, chunks as f64);
            daemon.close();
        });
    }

    /// Cut the socket while the sender waits for room. The daemon re-dials
    /// and resumes; the delivery mark its `RESUME` carries reopens the
    /// window, the sender gets out, and the worker sees every chunk
    /// exactly once. The resume credits what the daemon's inbox held at
    /// the cut, so the inbox reaches two windows, never more.
    #[cfg(unix)]
    #[test]
    fn a_daemon_cut_while_its_sender_waits_for_room_resumes_exactly_once() {
        use crate::transport::net::Conn;
        use crate::transport::session::SEND_QUEUE_LIMIT;
        use crate::transport::wire::{self, FrameBuffer};
        use std::io::Write;
        within(Duration::from_secs(60), || {
            let path = std::env::temp_dir()
                .join(format!("albic-window-resume-{}.sock", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
            let mut daemon = LoneDaemon::new(Some(format!("uds:{}", path.display())));
            let chunks = 2 * SEND_QUEUE_LIMIT + 10;
            let sender = daemon.send(chunks);
            daemon.fill_to(SEND_QUEUE_LIMIT);

            daemon.socket.shutdown(std::net::Shutdown::Both).unwrap();
            // The controller's side of the resume, as a stub runs it.
            let controller = &daemon.controller;
            let mut conn = Conn::Uds(listener.accept().unwrap().0);
            let mut fb = FrameBuffer::new();
            let (kind, body) = fb.read_frame(&mut conn).unwrap();
            assert_eq!(kind, wire::FRAME_RESUME);
            let resume: wire::ResumeMsg = wire::decode(body, None).unwrap();
            assert_eq!(resume.delivered, SEND_QUEUE_LIMIT as u64);
            assert!(controller.valid_resume_point(resume.delivered));
            let resumed = wire::encode(&controller.delivered());
            conn.write_all(&wire::frame_bytes(wire::FRAME_RESUMED, &resumed))
                .unwrap();
            controller
                .resume(conn.try_clone().unwrap(), resume.delivered, None)
                .unwrap();
            daemon.read(conn, fb);

            daemon.fill_to(2 * SEND_QUEUE_LIMIT);
            assert!(!sender.is_finished(), "the sender waits for room again");
            let worker = daemon.start(two_op_topology().0);
            let (_, (_, stats, _, _)) = sender.join().unwrap();
            worker.join().unwrap();
            assert_eq!(stats.ingested, chunks as f64, "every chunk, once");
            assert!(
                daemon.peak() <= 2 * SEND_QUEUE_LIMIT + 1,
                "{}",
                daemon.peak()
            );
            // With nobody to resume with, the daemon's reader ends.
            drop(listener);
            let _ = std::fs::remove_file(&path);
            daemon.close();
        });
    }

    /// An identity operator that sleeps before forwarding each tuple, so
    /// data stays in flight across several counting rounds.
    #[derive(Debug)]
    struct Sleepy;

    impl crate::operator::Operator for Sleepy {
        fn name(&self) -> &str {
            "sleepy"
        }
        fn new_state(&self) -> StateBox {
            Box::new(())
        }
        fn serialize_state(&self, _state: &StateBox) -> Vec<u8> {
            Vec::new()
        }
        fn deserialize_state(&self, _bytes: &[u8]) -> StateBox {
            Box::new(())
        }
        fn process(&self, tuple: &Tuple, _state: &mut StateBox, out: &mut Emissions) {
            std::thread::sleep(Duration::from_micros(200));
            out.emit(tuple.clone());
        }
    }

    /// A runtime over `ops` chained in order (the first is the source),
    /// with every group of operator `i` on node `placement[i]`.
    fn chain_runtime(
        ops: Vec<Arc<dyn crate::operator::Operator>>,
        placement: &[u32],
        nodes: usize,
    ) -> (Runtime, Vec<OperatorId>) {
        let mut b = TopologyBuilder::new();
        let mut ids = Vec::new();
        for (i, logic) in ops.into_iter().enumerate() {
            let name = format!("op{i}");
            let id = match i {
                0 => b.source(&name, 4, logic),
                _ => b.operator(&name, 4, logic),
            };
            if let Some(&prev) = ids.last() {
                b.edge(prev, id);
            }
            ids.push(id);
        }
        let topology = b.build().unwrap();
        let assignment = placement
            .iter()
            .flat_map(|&n| [NodeId::new(n); 4])
            .collect();
        let routing = RoutingTable::from_assignment(assignment);
        let cluster = Cluster::homogeneous(nodes);
        let rt = start_in_process(topology, cluster, routing, RuntimeConfig::default());
        (rt, ids)
    }

    /// Sum of a `Counting` operator's states over all of its groups.
    fn total_count(rt: &Runtime, op: OperatorId) -> u64 {
        rt.topology()
            .groups_of(op)
            .map(|g| count_of(rt, KeyGroupId::new(g)))
            .sum()
    }

    #[test]
    fn counting_quiesce_confirms_an_idle_plane_in_one_round() {
        within(Duration::from_secs(20), || {
            let (mut rt, src, _) = two_op_runtime(2);
            rt.inject(src, (0..50).map(|i| Tuple::keyed(&i, Value::Int(i), 0)));
            assert!(rt.quiesce() >= 2, "moving counters cannot confirm quiet");
            assert_eq!(rt.quiesce(), 1, "already quiet: one round confirms it");
            let before = rt.control_fanouts();
            ReconfigEngine::settle(&mut rt);
            assert_eq!(rt.control_fanouts() - before, 1);
            rt.shutdown();
        });
    }

    #[test]
    fn counting_quiesce_makes_an_idle_period_boundary_a_flush_and_a_collection() {
        within(Duration::from_secs(20), || {
            for checkpoint in [
                None,
                Some(CheckpointMode::Full),
                Some(CheckpointMode::Incremental),
            ] {
                let (mut rt, src, _) = two_op_runtime(2);
                if let Some(mode) = checkpoint {
                    rt.configure_recovery(1, DEFAULT_REPLAY_LOG_CAPACITY);
                    rt.configure_checkpointing(mode, None).unwrap();
                }
                for _ in 0..3 {
                    rt.inject(src, (0..50).map(|i| Tuple::keyed(&i, Value::Int(i), 0)));
                    ReconfigEngine::settle(&mut rt);
                    let before = rt.control_fanouts();
                    ReconfigEngine::settle(&mut rt);
                    let stats = rt.end_period();
                    assert_eq!(
                        rt.control_fanouts() - before,
                        3,
                        "{checkpoint:?}: one confirming round, one flush, one collection"
                    );
                    assert_eq!(stats.total_tuples, 100.0, "{checkpoint:?}");
                    let captured = rt.history().last().unwrap().checkpoint_bytes;
                    assert_eq!(captured > 0, checkpoint.is_some(), "{checkpoint:?}");
                }
                rt.shutdown();
            }
        });
    }

    #[test]
    fn counting_quiesce_waits_out_a_deep_chain_within_its_round_bound() {
        within(Duration::from_secs(30), || {
            // src(0) → sleepy(1) → sleepy(0) → count(1): every hop crosses.
            let ops: Vec<Arc<dyn crate::operator::Operator>> = vec![
                Arc::new(Identity),
                Arc::new(Sleepy),
                Arc::new(Sleepy),
                Arc::new(Counting),
            ];
            let (rt, ids) = chain_runtime(ops, &[0, 1, 0, 1], 2);
            assert_eq!(rt.topology().depth(), 3);
            rt.quiesce();
            assert_eq!(rt.quiesce(), 1);
            rt.inject(ids[0], (0..40).map(|i| Tuple::keyed(&i, Value::Int(i), 0)));
            let rounds = rt.quiesce();
            assert!(rounds > 1, "data in flight needs more than one round");
            assert!(rounds <= rt.settle_rounds, "{rounds} rounds");
            assert_eq!(total_count(&rt, ids[3]), 40, "quiet means fully processed");
            assert_eq!(rt.quiesce(), 1);
            rt.shutdown();
        });
    }

    #[test]
    fn counting_quiesce_ends_unconfirmed_when_a_worker_dies_mid_round() {
        within(Duration::from_secs(30), || {
            // The source sits on node 1 and takes ~50 ms for the batch,
            // so node 1 is alive when the round's barrier reaches it —
            // queued behind a crash it never answers.
            let ops: Vec<Arc<dyn crate::operator::Operator>> =
                vec![Arc::new(Sleepy), Arc::new(Counting)];
            let (mut rt, ids) = chain_runtime(ops, &[1, 0], 2);
            rt.quiesce();
            rt.inject(ids[0], (0..250).map(|i| Tuple::keyed(&i, Value::Int(i), 0)));
            let victim = rt.senders.read().get(&NodeId::new(1)).cloned().unwrap();
            assert!(victim.send(Msg::Crash).is_ok());
            assert_eq!(rt.quiesce(), 1, "the broken round ends the wait");
            assert!(rt.last_round.lock().is_none(), "nothing is remembered");
            // The survivor alone: no baseline, so one round cannot confirm.
            assert_eq!(rt.quiesce(), 2);
            assert_eq!(rt.quiesce(), 1);
            assert_eq!(rt.recover().failed, vec![NodeId::new(1)]);
            rt.shutdown();
        });
    }

    /// Added by the re-keying recorder to what it forwards, so a sink can
    /// tell the two paths into it apart.
    const VIA_MID: i64 = 1 << 40;
    /// Distinct keys of the dispatch tests; tuple `seq` has key
    /// `seq % DISPATCH_KEYS`.
    const DISPATCH_KEYS: i64 = 1_000;

    /// Records the sequence number (the `Int` value) of every tuple it
    /// processes, in arrival order, and forwards the tuple — re-keyed and
    /// tagged with [`VIA_MID`] when `rekey` is set.
    struct Recorder {
        rekey: bool,
    }

    fn rekeyed(key: u64) -> u64 {
        hash_key(&key.wrapping_mul(31).wrapping_add(7))
    }

    impl crate::operator::Operator for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn new_state(&self) -> StateBox {
            Box::new(Vec::<i64>::new())
        }
        fn serialize_state(&self, state: &StateBox) -> Vec<u8> {
            let seqs = state.downcast_ref::<Vec<i64>>().unwrap();
            seqs.iter().flat_map(|v| v.to_le_bytes()).collect()
        }
        fn deserialize_state(&self, bytes: &[u8]) -> StateBox {
            let seqs: Vec<i64> = bytes
                .chunks_exact(8)
                .map(|b| i64::from_le_bytes(b.try_into().unwrap()))
                .collect();
            Box::new(seqs)
        }
        fn process(&self, tuple: &Tuple, state: &mut StateBox, out: &mut Emissions) {
            let Value::Int(seq) = tuple.value else {
                panic!("recorder input carries its sequence number");
            };
            state.downcast_mut::<Vec<i64>>().unwrap().push(seq);
            out.emit(match self.rekey {
                true => Tuple::raw(rekeyed(tuple.key), Value::Int(seq + VIA_MID), tuple.ts),
                false => tuple.clone(),
            });
        }
    }

    /// `src → mid → sink` plus `src → sink`: `src` fans out to two
    /// operators, and `mid → sink` re-keys. `groups` per operator.
    fn recorder_topology(groups: u32) -> (Topology, [OperatorId; 3]) {
        let mut b = TopologyBuilder::new();
        let src = b.source("src", groups, Arc::new(Recorder { rekey: false }));
        let mid = b.operator("mid", groups, Arc::new(Recorder { rekey: true }));
        let sink = b.operator("sink", groups, Arc::new(Recorder { rekey: false }));
        b.edge(src, mid).edge(src, sink).edge(mid, sink);
        (b.build().unwrap(), [src, mid, sink])
    }

    fn seq_tuple(seq: i64) -> Tuple {
        Tuple::keyed(&(seq % DISPATCH_KEYS), Value::Int(seq), 0)
    }

    /// The sequential oracle: what each group of the recorder topology
    /// records for `seqs`, processed one tuple at a time in order, keyed
    /// by global group id; only groups `here` accepts are processed.
    fn oracle_records(
        topology: &Topology,
        seqs: impl Iterator<Item = i64>,
        here: impl Fn(u32) -> bool,
    ) -> FastMap<u32, Vec<i64>> {
        let [src, mid, sink] = [0, 1, 2].map(OperatorId::new);
        let mut records: FastMap<u32, Vec<i64>> = FastMap::default();
        let mut record = |op: OperatorId, key: u64, v: i64| {
            let g = topology.group_for_key(op, key).raw();
            let processed = here(g);
            if processed {
                records.entry(g).or_default().push(v);
            }
            processed
        };
        for seq in seqs {
            let key = seq_tuple(seq).key;
            if record(src, key, seq) {
                record(sink, key, seq);
                if record(mid, key, seq) {
                    record(sink, rekeyed(key), seq + VIA_MID);
                }
            }
        }
        records
    }

    /// The comm counters the recorder topology's flows for `seqs` add up
    /// to when `node_of` places every group and the groups `here` accepts
    /// are the ones that process (and so record their outbound flows).
    fn oracle_comm(
        topology: &Topology,
        seqs: impl Iterator<Item = i64>,
        node_of: impl Fn(u32) -> NodeId,
        here: impl Fn(u32) -> bool,
    ) -> StatsCollector {
        let [src, mid, sink] = [0, 1, 2].map(OperatorId::new);
        let mut comm = StatsCollector::new();
        let mut flow = |from: u32, to: u32| {
            let crossed = node_of(from) != node_of(to);
            comm.record_comm(KeyGroupId::new(from), KeyGroupId::new(to), 1.0, crossed);
        };
        for seq in seqs {
            let key = seq_tuple(seq).key;
            let [s, m] = [src, mid].map(|op| topology.group_for_key(op, key).raw());
            if !here(s) {
                continue;
            }
            flow(s, m);
            flow(s, topology.group_for_key(sink, key).raw());
            if here(m) {
                flow(m, topology.group_for_key(sink, rekeyed(key)).raw());
            }
        }
        comm
    }

    /// A group's records in the order the data plane promises: all of
    /// them, except that what reaches a group from different upstream
    /// groups (here: the re-keyed path, per source key) may interleave.
    fn promised_order(mut seqs: Vec<i64>) -> Vec<i64> {
        seqs.sort_by_key(|&v| match v >= VIA_MID {
            true => (1, (v - VIA_MID) % DISPATCH_KEYS),
            false => (0, 0),
        });
        seqs
    }

    fn recorded(bytes: Option<Vec<u8>>) -> Vec<i64> {
        use crate::operator::Operator;
        let state = Recorder { rekey: false }.deserialize_state(&bytes.unwrap_or_default());
        state.downcast_ref::<Vec<i64>>().unwrap().clone()
    }

    fn assert_comm_eq(got: &StatsCollector, want: &StatsCollector) {
        assert_eq!(got.out_matrix, want.out_matrix, "out_matrix");
        assert_eq!(got.cross_in, want.cross_in, "cross_in");
        assert_eq!(got.cross_out, want.cross_out, "cross_out");
    }

    /// Many short key-group runs per chunk through a fan-out and a
    /// re-keying edge on 2 workers: every group records exactly the
    /// oracle's tuples, in injection order wherever one upstream group
    /// feeds it, and the period's comm counters equal the input's flows.
    #[test]
    fn many_key_groups_through_a_fan_out_and_a_rekeying_edge_match_the_oracle() {
        let (topology, [src, ..]) = recorder_topology(64);
        let cluster = Cluster::homogeneous(2);
        let nodes: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id).collect();
        let routing = RoutingTable::round_robin(topology.num_key_groups(), &nodes);
        let rt = start_in_process(topology, cluster, routing, RuntimeConfig::default());
        let n = 20_000;
        for call in 0..n / 500 {
            rt.inject(src, (call * 500..(call + 1) * 500).map(seq_tuple));
        }
        rt.quiesce();
        let topology = Arc::clone(&rt.topology);
        let want = oracle_records(&topology, 0..n, |_| true);
        for g in 0..topology.num_key_groups() {
            let got = recorded(rt.probe_state(KeyGroupId::new(g)));
            let want = want.get(&g).cloned().unwrap_or_default();
            assert_eq!(promised_order(got), promised_order(want), "group {g}");
        }
        let (replies, complete) = rt.fan_out(|_, reply| Msg::CollectStats {
            capture: None,
            reply,
        });
        assert!(complete);
        let mut merged = StatsCollector::new();
        for (_, c, _, _) in replies {
            merged.merge(&c);
        }
        let node_of = |g| rt.routing.read().node_of(KeyGroupId::new(g));
        assert_comm_eq(&merged, &oracle_comm(&topology, 0..n, node_of, |_| true));
        rt.shutdown();
    }

    /// One inbound chunk holding a group mid-migration (buffered), a
    /// group owned elsewhere (forwarded) and owned groups, followed by
    /// the buffered group's install and a second chunk: each owned group
    /// records its rows in arrival order, the buffered rows replay ahead
    /// of later ones, and the forwarded rows and cross-node emissions
    /// reach the peer in order.
    #[test]
    fn a_chunk_mixing_buffered_forwarded_and_owned_groups_dispatches_each_its_way() {
        use crate::operator::Operator;
        let (topology, [src, mid, _]) = recorder_topology(4);
        let topology = Arc::new(topology);
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        // Source keys split over all four source groups.
        let group_of = |seq: i64| topology.group_for_key(src, seq_tuple(seq).key).raw();
        let (buffered, forwarded) = (group_of(0), group_of(1));
        let crossing = (2..)
            .map(group_of)
            .find(|g| ![buffered, forwarded].contains(g));
        let crossing = crossing.unwrap();
        // `crossing`'s `mid` group lives on the peer: its emissions there
        // cross; everything else not named is owned.
        let crossing_mid = crossing + topology.groups_of(mid).start;
        let mut table = RoutingTable::round_robin(topology.num_key_groups(), &[n0]);
        table.reroute(KeyGroupId::new(forwarded), n1);
        table.reroute(KeyGroupId::new(crossing_mid), n1);
        let node_of = |g: u32| table.node_of(KeyGroupId::new(g));
        let here = |g: u32| node_of(g) == n0;

        let routed = |seqs: std::ops::Range<i64>| {
            let mut chunk = StreamChunk::from_tuples(seqs.map(seq_tuple));
            chunk.assign_groups(src, &topology);
            Msg::DataChunk(chunk)
        };
        let (ack, _acks) = unbounded();
        let (done, _done) = unbounded();
        let (stats_tx, stats_rx) = unbounded();
        let (probe_tx, probe_rx) = unbounded();
        let blank =
            Recorder { rekey: false }.serialize_state(&Recorder { rekey: false }.new_state());
        let mut msgs = vec![
            Msg::PrepareReceive {
                kg: KeyGroupId::new(buffered),
                ack: ReplyTo::Chan(ack),
            },
            routed(0..40),
            Msg::Install {
                kg: KeyGroupId::new(buffered),
                op: src,
                state: StateBlob::new(blank),
                done: ReplyTo::Chan(done),
            },
            routed(40..80),
            Msg::CollectStats {
                capture: None,
                reply: ReplyTo::Chan(stats_tx),
            },
        ];
        let groups = topology.num_key_groups();
        msgs.extend((0..groups).map(|g| Msg::ProbeState {
            kg: KeyGroupId::new(g),
            reply: ReplyTo::Chan(probe_tx.clone()),
        }));
        msgs.push(Msg::Shutdown);

        let cfg = RuntimeConfig::default();
        let (peer_tx, mut peer_rx) = inbox::channel(&cfg);
        let senders: InboxMap = Arc::default();
        senders.write().insert(n1, peer_tx);
        let spawn = WorkerSpawn {
            node: n0,
            inbox: inbox_of(cfg.batch_size, msgs),
            topology: Arc::clone(&topology),
            routing: Arc::new(RoutingShared::new(table.clone())),
            senders,
            dropped: Arc::default(),
            cfg,
        };
        let _ = WorkerCtx::from_spawn(spawn, None).run();

        let want = oracle_records(&topology, 0..80, here);
        for g in 0..groups {
            let got = recorded(probe_rx.recv().unwrap());
            let want = want.get(&g).cloned().unwrap_or_default();
            assert_eq!(promised_order(got), promised_order(want), "group {g}");
        }
        let stats = stats_rx.recv().unwrap().1;
        assert_comm_eq(&stats, &oracle_comm(&topology, 0..80, node_of, here));

        // The peer got the forwarded source rows and `crossing`'s
        // emissions to its `mid` group, each group's in arrival order.
        let mut at_peer: FastMap<u32, Vec<i64>> = FastMap::default();
        while let Ok(Msg::DataChunk(chunk)) = peer_rx.try_next() {
            for i in 0..chunk.len() {
                let Value::Int(seq) = chunk.value_at(i) else {
                    panic!("an Int row");
                };
                at_peer.entry(chunk.group_at(i)).or_default().push(seq);
            }
        }
        let rows_of = |g: u32| (0..80).filter(|&s| group_of(s) == g).collect::<Vec<i64>>();
        assert_eq!(at_peer.len(), 2, "{at_peer:?}");
        assert_eq!(at_peer[&forwarded], rows_of(forwarded));
        assert_eq!(at_peer[&crossing_mid], rows_of(crossing));
    }
}
