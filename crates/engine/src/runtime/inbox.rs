//! A worker's inbox: one FIFO channel for its data chunks and control
//! messages, and the credit that bounds the data chunks queued in it (see
//! the [`super`] module docs, *Data plane*). Epoch alignment relies on
//! per-sender FIFO over one queue that carries both kinds, so the credit
//! travels beside the channel rather than bounding it.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;

use super::{Msg, RuntimeConfig, PRESSURE_POLL};
use crate::chunk::StreamChunk;
use crate::stats::NodePressure;

/// A worker's inbox: the sending half for its producers, the receiving
/// half for its one consumer.
pub(crate) fn channel(cfg: &RuntimeConfig) -> (Inbox, InboxRx) {
    let (tx, rx) = unbounded();
    let credit = Arc::new(Credit {
        batch_size: cfg.batch_size,
        channel_capacity: cfg.channel_capacity,
        ..Credit::default()
    });
    let rx = InboxRx {
        rx,
        credit: Arc::clone(&credit),
        stash: None,
    };
    (Inbox { tx, credit }, rx)
}

/// What an inbox's two halves share: the credit, the pressure counters
/// exported at period end, and the spare list of consumed chunk buffers.
#[derive(Debug, Default)]
pub(crate) struct Credit {
    /// Data chunks sent and not yet handed out by the receiving half.
    depth: AtomicUsize,
    /// Largest `depth` observed since the last period collection.
    peak_depth: AtomicUsize,
    /// Chunks sent past capacity after a bounded wait expired.
    overflow: AtomicU64,
    /// Set once the runtime unpublishes the inbox.
    retired: AtomicBool,
    /// Cleared buffers the consumer is done with, for the producers: at
    /// most `channel_capacity`, each of at most `batch_size` rows.
    spare: Mutex<Vec<StreamChunk>>,
    batch_size: usize,
    channel_capacity: usize,
}

impl Credit {
    /// Hand a consumed chunk's buffer back to this inbox's producers; one
    /// of more than `batch_size` rows (a window flush, a migration
    /// buffer's replay) or past `channel_capacity` spares is freed.
    pub(crate) fn give_back(&self, mut chunk: StreamChunk) {
        if chunk.capacity() == 0 || chunk.capacity() > self.batch_size {
            return;
        }
        chunk.clear();
        let mut spare = self.spare.lock();
        if spare.len() < self.channel_capacity {
            spare.push(chunk);
        }
    }

    /// A cleared buffer for the next chunk bound for this inbox.
    pub(crate) fn take_spare(&self) -> Option<StreamChunk> {
        self.spare.lock().pop()
    }

    fn enqueued(&self) {
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_depth.fetch_max(d, Ordering::Relaxed);
    }

    fn dequeued(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Copy the period counters into `p`, resetting peak and overflow.
    pub(crate) fn collect_into(&self, p: &mut NodePressure) {
        p.queue_depth = self.depth();
        p.peak_queue_depth = self
            .peak_depth
            .swap(0, Ordering::Relaxed)
            .max(p.queue_depth);
        p.overflow = self.overflow.swap(0, Ordering::Relaxed);
    }
}

/// The sending half of a worker's inbox.
#[derive(Clone)]
pub(crate) struct Inbox {
    tx: Sender<Msg>,
    pub(crate) credit: Arc<Credit>,
}

// The large `Err` is the point: an undeliverable message comes back by
// value so the caller can retry or account it.
#[allow(clippy::result_large_err)]
impl Inbox {
    /// Queue `msg` without waiting (every control message's path); a data
    /// chunk takes a credit, returned with it if the receiver is gone.
    pub(crate) fn send(&self, msg: Msg) -> Result<(), Msg> {
        let data = matches!(msg, Msg::DataChunk(_));
        if data {
            self.credit.enqueued();
        }
        self.tx.send(msg).map_err(|e| {
            if data {
                self.credit.dequeued();
            }
            e.0
        })
    }

    /// Send a [`Msg::DataChunk`] once there is credit: wait up to
    /// `patience`, sleeping [`PRESSURE_POLL`] per look (the consumer
    /// needs the CPU to drain), then overshoot, counting the overflow.
    /// The message comes back if the inbox is retired meanwhile or its
    /// receiving half is gone; the caller picks the loss policy.
    pub(crate) fn send_gated(&self, patience: Duration, msg: Msg) -> Result<(), Msg> {
        debug_assert!(matches!(msg, Msg::DataChunk(_)));
        let credit = &self.credit;
        let full = || credit.depth() >= credit.channel_capacity;
        let mut waited = Duration::ZERO;
        while full() && waited < patience {
            std::thread::sleep(PRESSURE_POLL);
            waited += PRESSURE_POLL;
            if credit.retired.load(Ordering::Acquire) {
                return Err(msg);
            }
        }
        if full() {
            credit.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.send(msg)
    }

    /// Mark the inbox unpublished: a sender waiting for its credit gives up.
    pub(crate) fn retire(&self) {
        self.credit.retired.store(true, Ordering::Release);
    }
}

/// The receiving half of a worker's inbox.
pub(crate) struct InboxRx {
    rx: Receiver<Msg>,
    pub(crate) credit: Arc<Credit>,
    /// The message coalescing stopped at: handed out before the channel.
    stash: Option<Msg>,
}

impl InboxRx {
    /// The next message, blocking; `None` once every sending half is gone
    /// and nothing is left.
    pub(crate) fn next(&mut self) -> Option<Msg> {
        let msg = self.stash.take().or_else(|| self.rx.recv().ok())?;
        Some(self.hand_over(msg))
    }

    /// The next message, if one is already there.
    pub(crate) fn try_next(&mut self) -> Result<Msg, TryRecvError> {
        let msg = self.stash.take().map_or_else(|| self.rx.try_recv(), Ok)?;
        Ok(self.hand_over(msg))
    }

    /// A data chunk leaving for the caller returns its credit and is
    /// topped up ([`InboxRx::coalesce`]).
    fn hand_over(&mut self, mut msg: Msg) -> Msg {
        if let Msg::DataChunk(head) = &mut msg {
            self.credit.dequeued();
            self.coalesce(head);
        }
        msg
    }

    /// Splice the data chunks queued right behind `head` onto it, without
    /// waiting, while it stays within `batch_size` rows. The first other
    /// message, or a chunk that does not fit, is stashed to be handed out
    /// next, so nothing is ever overtaken. Each merged chunk returns its
    /// credit and its buffer; `batch_size = 1` merges nothing.
    fn coalesce(&mut self, head: &mut StreamChunk) {
        let batch_size = self.credit.batch_size;
        while head.len() < batch_size {
            let Ok(msg) = self.rx.try_recv() else {
                return;
            };
            match msg {
                Msg::DataChunk(next) if head.len() + next.visible_len() <= batch_size => {
                    self.credit.dequeued();
                    head.append_range(&next, 0, next.len());
                    self.credit.give_back(next);
                }
                msg => {
                    self.stash = Some(msg);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Tuple, Value};
    use albic_types::NodeId;

    fn sized(batch_size: usize, channel_capacity: usize) -> RuntimeConfig {
        RuntimeConfig {
            batch_size,
            channel_capacity,
            ..RuntimeConfig::default()
        }
    }

    /// A data chunk of `rows` rows.
    fn chunk(rows: usize) -> Msg {
        let tuples = (0..rows).map(|i| Tuple::keyed(&(i as u64), Value::Int(i as i64), 0));
        Msg::DataChunk(StreamChunk::from_tuples(tuples))
    }

    fn rows_of(msg: Option<Msg>) -> usize {
        match msg {
            Some(Msg::DataChunk(c)) => c.len(),
            _ => panic!("expected a data chunk"),
        }
    }

    #[test]
    fn coalesce_stops_at_a_control_message_and_stashes_it() {
        let (tx, mut rx) = channel(&RuntimeConfig::default());
        let barrier = Msg::PeerBarrier {
            epoch: 7,
            from: NodeId::new(1),
        };
        for msg in [chunk(3), chunk(4), chunk(2), barrier, chunk(5)] {
            assert!(tx.send(msg).is_ok());
        }
        assert_eq!(
            rows_of(rx.next()),
            9,
            "all chunks ahead of the barrier merge"
        );
        assert!(
            matches!(rx.stash, Some(Msg::PeerBarrier { epoch: 7, .. })),
            "the barrier is stashed, to be handed out next"
        );
        assert_eq!(rx.credit.depth(), 1, "one credit per merged chunk");
        assert!(matches!(rx.next(), Some(Msg::PeerBarrier { epoch: 7, .. })));
        // Nothing behind the barrier was touched.
        assert_eq!(rows_of(rx.next()), 5);
        assert_eq!(rx.credit.depth(), 0);
    }

    #[test]
    fn a_data_send_takes_one_credit_and_a_control_send_none() {
        let (tx, mut rx) = channel(&RuntimeConfig::default());
        assert!(tx.send(chunk(3)).is_ok());
        assert_eq!(tx.credit.depth(), 1);
        let barrier = Msg::PeerBarrier {
            epoch: 1,
            from: NodeId::new(0),
        };
        assert!(tx.send(barrier).is_ok());
        assert!(tx.send(Msg::Shutdown).is_ok());
        assert_eq!(tx.credit.depth(), 1, "control messages take no credit");
        assert!(tx.send_gated(Duration::ZERO, chunk(2)).is_ok());
        assert_eq!(rx.credit.depth(), 2, "both halves read one credit");
        assert_eq!(rows_of(rx.next()), 3, "the barrier stops the merge");
        assert_eq!(rx.credit.depth(), 1);
        assert!(matches!(rx.next(), Some(Msg::PeerBarrier { .. })));
        assert!(matches!(rx.next(), Some(Msg::Shutdown)));
        assert_eq!(rx.credit.depth(), 1, "handing out control returns none");
        assert_eq!(rows_of(rx.next()), 2);
        assert_eq!(rx.credit.depth(), 0);
    }

    #[test]
    fn a_send_to_a_dropped_receiver_returns_its_credit() {
        let (tx, rx) = channel(&RuntimeConfig::default());
        drop(rx);
        assert!(matches!(tx.send(chunk(1)), Err(Msg::DataChunk(_))));
        let gated = tx.send_gated(Duration::from_millis(1), chunk(1));
        assert!(matches!(gated, Err(Msg::DataChunk(_))));
        assert!(matches!(tx.send(Msg::Shutdown), Err(Msg::Shutdown)));
        assert_eq!(tx.credit.depth(), 0);
    }

    #[test]
    fn coalescing_k_chunks_releases_k_credits() {
        let (tx, mut rx) = channel(&sized(8, 16));
        for _ in 0..6 {
            assert!(tx.send(chunk(2)).is_ok());
        }
        assert_eq!(rows_of(rx.next()), 8, "four chunks merge");
        assert_eq!(rx.credit.depth(), 6 - 4);
        assert!(rx.stash.is_none(), "a full head reads no further");
        assert_eq!(rows_of(rx.next()), 4, "two chunks merge");
        assert_eq!(rx.credit.depth(), 0);

        let (tx, mut rx) = channel(&sized(1, 16));
        for _ in 0..3 {
            assert!(tx.send(chunk(1)).is_ok());
        }
        assert_eq!(rows_of(rx.next()), 1);
        assert_eq!(rx.credit.depth(), 2);
        assert!(
            rx.stash.is_none(),
            "at batch size 1 a head does not even look"
        );
    }

    #[test]
    fn a_stashed_chunk_keeps_its_credit_until_it_is_handed_out() {
        let (tx, mut rx) = channel(&sized(8, 16));
        for rows in [6, 4, 1] {
            assert!(tx.send(chunk(rows)).is_ok());
        }
        assert_eq!(rows_of(rx.next()), 6);
        assert!(
            matches!(&rx.stash, Some(Msg::DataChunk(c)) if c.len() == 4),
            "the chunk that does not fit is stashed"
        );
        assert_eq!(rx.credit.depth(), 2, "the stashed chunk keeps its credit");
        assert_eq!(rows_of(rx.next()), 4 + 1);
        assert_eq!(rx.credit.depth(), 0);
    }

    /// The receiving half of a worker that is gone (parked in the
    /// runtime's graveyard) still hands out what its consumer stashed,
    /// ahead of the channel, until the channel is empty.
    #[test]
    fn try_next_on_a_graveyard_inbox_yields_the_stash_first() {
        let (tx, mut rx) = channel(&sized(8, 16));
        for msg in [chunk(6), chunk(4), Msg::Shutdown, chunk(1)] {
            assert!(tx.send(msg).is_ok());
        }
        assert_eq!(rows_of(rx.try_next().ok()), 6);
        drop(tx);
        assert_eq!(rows_of(rx.try_next().ok()), 4, "the stash first");
        assert!(matches!(rx.try_next(), Ok(Msg::Shutdown)));
        assert_eq!(rows_of(rx.try_next().ok()), 1);
        assert!(matches!(rx.try_next(), Err(TryRecvError::Disconnected)));
        assert_eq!(rx.credit.depth(), 0);
    }

    /// An inbox's spare list keeps cleared buffers of at most
    /// `batch_size` rows, at most `channel_capacity` of them, under any
    /// sequence of hand-backs and takes.
    #[test]
    fn an_inbox_keeps_only_cleared_batch_sized_spares_within_its_capacity() {
        let cfg = sized(8, 4);
        let used = |rows: usize| {
            let mut c = StreamChunk::with_capacity(rows);
            for i in 0..rows {
                c.push(i as u64, Value::Str("x".into()), 0);
            }
            c.hide(0);
            c
        };
        let (_, rx) = channel(&cfg);
        let credit = &rx.credit;
        credit.give_back(used(9));
        credit.give_back(StreamChunk::new());
        assert!(credit.take_spare().is_none(), "oversized or bufferless");
        // A seeded walk of hand-backs (sizes 1..=12) and takes.
        let (mut x, mut held) = (0x2545_f491_4f6c_dd1du64, 0usize);
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 3 == 0 {
                if let Some(c) = credit.take_spare() {
                    assert!(c.is_empty() && c.visible_len() == 0);
                    assert!((1..=cfg.batch_size).contains(&c.capacity()));
                    held -= 1;
                } else {
                    assert_eq!(held, 0);
                }
            } else {
                let rows = 1 + (x >> 8) as usize % 12;
                credit.give_back(used(rows));
                if rows <= cfg.batch_size && held < cfg.channel_capacity {
                    held += 1;
                }
            }
            assert_eq!(credit.spare.lock().len(), held);
        }
    }
}
