//! Session-layer sequencing and reconnect policy for the networked
//! transport.
//!
//! A *session* outlives any single socket. Both peers of a worker link
//! (controller stub and worker daemon) run one [`SendSequencer`] and one
//! [`RecvSequencer`]: every session-bearing frame (`MSG`, `FORWARD`,
//! `REPLY`, `ROUTING`) carries a monotone sequence number plus a
//! piggybacked cumulative ack of the peer's stream. Sent frames stay
//! parked in a bounded resend queue until acked; received frames are
//! delivered exactly once (duplicates after a resume are dropped, gaps
//! force a reconnect so the resend heals them). When a socket dies, the
//! surviving peer re-dials under a [`ReconnectPolicy`] and the `RESUME`
//! handshake exchanges each side's `delivered` high-water mark, after
//! which both replay exactly the suffix the other never saw.
//!
//! The sequencers are deliberately transport-agnostic (plain state
//! machines over `(seq, ack)` pairs) and public so the property tests in
//! `tests/properties.rs` can model lossy links against them directly.

use std::collections::VecDeque;
use std::time::Duration;

/// Send an explicit `ACK` once this many frames were consumed since the
/// last ack, so a one-directional stream still reopens the peer's window.
pub(crate) const ACK_EVERY: u64 = 32;

/// Resend-queue bound, in frames: the session window. A daemon acks a
/// data chunk only once dequeued, so a slow daemon fills the window and
/// producers block on its stub's inbox. Small beside a channel capacity,
/// as a frame the daemon has not dequeued is also held here.
pub(crate) const SEND_QUEUE_LIMIT: usize = 128;

/// How a transport endpoint behaves when its socket dies: how many
/// re-dial attempts to make, spaced by exponential backoff with
/// deterministic jitter, before declaring the peer crashed. The
/// controller side waits out the mirrored window for the worker to dial
/// back in. `attempts: 0` restores the pre-session behaviour where
/// socket death is immediately worker death.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconnectPolicy {
    /// Re-dial attempts before giving up.
    pub attempts: u32,
    /// Backoff before the first attempt; doubles each attempt.
    pub base_backoff: Duration,
    /// Ceiling on the per-attempt backoff.
    pub max_backoff: Duration,
    /// Fraction of each backoff added as deterministic per-node jitter
    /// in `[0, jitter)`, decorrelating a thundering herd of workers.
    pub jitter: f64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            attempts: 6,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(400),
            jitter: 0.2,
        }
    }
}

impl ReconnectPolicy {
    /// No reconnection: the first socket error is terminal.
    pub fn none() -> Self {
        ReconnectPolicy {
            attempts: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
        }
    }

    /// Backoff before attempt `attempt` (0-based). Deterministic: jitter
    /// comes from hashing `(salt, attempt)`, not a clock or RNG, so
    /// reconnect schedules are reproducible in tests.
    pub(crate) fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let base = self.base(attempt);
        let mut x = salt ^ (u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        base + base.mul_f64(self.jitter.clamp(0.0, 1.0) * unit)
    }

    /// How long the surviving peer should hold a dead session open for a
    /// `RESUME`: the sum of every backoff at full jitter, plus slack for
    /// the dials themselves.
    pub(crate) fn patience(&self) -> Duration {
        let jitter = self.jitter.clamp(0.0, 1.0);
        let backoffs: Duration = (0..self.attempts)
            .map(|attempt| self.base(attempt) + self.base(attempt).mul_f64(jitter))
            .sum();
        backoffs + Duration::from_secs(2)
    }

    /// Un-jittered backoff before attempt `attempt`: doubling, capped.
    fn base(&self, attempt: u32) -> Duration {
        self.base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff)
    }
}

/// The sending half of a session: assigns sequence numbers (starting
/// at 1) and parks every sent frame until the peer's cumulative ack
/// prunes it.
///
/// After a resume, [`SendSequencer::pending`] yields exactly the frames
/// the peer has not delivered, in order.
#[derive(Debug)]
pub struct SendSequencer {
    next: u64,
    acked: u64,
    queue: VecDeque<(u64, u8, Vec<u8>)>,
    limit: usize,
}

impl SendSequencer {
    /// A fresh outbound stream with a resend queue bounded at `limit`
    /// frames.
    pub fn new(limit: usize) -> Self {
        SendSequencer {
            next: 1,
            acked: 0,
            queue: VecDeque::new(),
            limit,
        }
    }

    /// Whether another frame fits under the resend-queue bound. Purely
    /// advisory — [`SendSequencer::push`] never fails — so callers decide
    /// whether to block or stop pulling upstream work.
    pub fn has_room(&self) -> bool {
        self.queue.len() < self.limit
    }

    /// Assign the next sequence number to `body` and park it for
    /// (re)transmission. Returns the assigned number.
    pub fn push(&mut self, kind: u8, body: Vec<u8>) -> u64 {
        let seq = self.next;
        self.next += 1;
        self.queue.push_back((seq, kind, body));
        seq
    }

    /// Apply a cumulative ack: every parked frame with `seq <= upto` is
    /// dropped. Returns whether anything was pruned. Acks never regress;
    /// a stale (smaller) ack is a no-op.
    pub fn ack(&mut self, upto: u64) -> bool {
        if upto <= self.acked {
            return false;
        }
        self.acked = upto.min(self.next - 1);
        let mut pruned = false;
        while matches!(self.queue.front(), Some(&(seq, _, _)) if seq <= self.acked) {
            self.queue.pop_front();
            pruned = true;
        }
        pruned
    }

    /// Highest sequence number assigned so far (0 if none).
    pub fn highest(&self) -> u64 {
        self.next - 1
    }

    /// Highest cumulatively acked sequence number.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Frames still awaiting ack with `seq > after`, in sequence order —
    /// the replay suffix for a resumed session.
    pub fn pending(&self, after: u64) -> impl Iterator<Item = (u64, u8, &[u8])> {
        self.queue
            .iter()
            .filter(move |&&(seq, _, _)| seq > after)
            .map(|&(seq, kind, ref body)| (seq, kind, body.as_slice()))
    }

    /// Whether a peer-claimed delivery mark is consistent with this
    /// stream: it cannot exceed what was sent, nor regress below what
    /// the peer already acked.
    pub fn valid_resume_point(&self, delivered: u64) -> bool {
        delivered >= self.acked && delivered <= self.highest()
    }
}

/// Verdict of [`RecvSequencer::accept`] on one incoming sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqVerdict {
    /// Next-in-order: deliver it.
    Fresh,
    /// Already delivered (a resend overlap): drop it.
    Duplicate,
    /// A gap — frames were lost without the socket dying cleanly. The
    /// connection must be torn down and resumed so the peer's resend
    /// queue heals the hole.
    Gap,
}

/// The receiving half of a session: tracks the contiguous delivery
/// high-water mark and when an explicit ack is owed. Its ack leaves out
/// the `held` frames not consumed yet (a daemon's queued data chunks).
#[derive(Debug, Default)]
pub struct RecvSequencer {
    delivered: u64,
    acked_mark: u64,
}

impl RecvSequencer {
    /// A fresh inbound stream (nothing delivered yet).
    pub fn new() -> Self {
        RecvSequencer::default()
    }

    /// Classify sequence number `seq`; on [`SeqVerdict::Fresh`] the
    /// delivery mark advances.
    pub fn accept(&mut self, seq: u64) -> SeqVerdict {
        if seq == self.delivered + 1 {
            self.delivered = seq;
            SeqVerdict::Fresh
        } else if seq <= self.delivered {
            SeqVerdict::Duplicate
        } else {
            SeqVerdict::Gap
        }
    }

    /// Contiguous delivery high-water mark — what a `RESUME`/`RESUMED`
    /// frame advertises to the peer.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Whether enough frames were consumed since the last ack the peer saw
    /// to owe an explicit `ACK` frame.
    pub fn ack_due(&self, held: u64) -> bool {
        let consumed = self.delivered.saturating_sub(held);
        consumed.saturating_sub(self.acked_mark) >= ACK_EVERY
    }

    /// The cumulative ack to put on the wire now (explicitly or
    /// piggybacked on an outbound frame), recorded as seen by the peer.
    pub fn take_ack(&mut self, held: u64) -> u64 {
        self.acked_mark = self.delivered.saturating_sub(held);
        self.acked_mark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequencers_round_trip_in_order() {
        let mut tx = SendSequencer::new(16);
        let mut rx = RecvSequencer::new();
        for i in 0..10u64 {
            let seq = tx.push(3, vec![i as u8]);
            assert_eq!(seq, i + 1);
            assert_eq!(rx.accept(seq), SeqVerdict::Fresh);
        }
        assert!(tx.ack(rx.delivered()));
        assert_eq!(tx.pending(0).count(), 0);
    }

    #[test]
    fn resume_replays_exactly_the_unseen_suffix() {
        let mut tx = SendSequencer::new(16);
        let mut rx = RecvSequencer::new();
        for i in 0..8u64 {
            tx.push(3, vec![i as u8]);
        }
        // Peer saw 1..=5 before the cut; 4..=5 rode frames whose acks
        // were lost.
        for seq in 1..=5 {
            assert_eq!(rx.accept(seq), SeqVerdict::Fresh);
        }
        tx.ack(3);
        assert!(tx.valid_resume_point(rx.delivered()));
        let replay: Vec<u64> = tx.pending(rx.delivered()).map(|(s, _, _)| s).collect();
        assert_eq!(replay, vec![6, 7, 8]);
        // A full resend (from the ack mark) dedups cleanly.
        let verdicts: Vec<SeqVerdict> = (4..=8).map(|s| rx.accept(s)).collect();
        assert_eq!(
            verdicts,
            vec![
                SeqVerdict::Duplicate,
                SeqVerdict::Duplicate,
                SeqVerdict::Fresh,
                SeqVerdict::Fresh,
                SeqVerdict::Fresh
            ]
        );
    }

    #[test]
    fn gaps_and_bad_resume_points_are_rejected() {
        let mut tx = SendSequencer::new(16);
        let mut rx = RecvSequencer::new();
        tx.push(3, vec![]);
        assert_eq!(rx.accept(2), SeqVerdict::Gap);
        assert!(!tx.valid_resume_point(5)); // claims more than was sent
        tx.ack(1);
        assert!(!tx.valid_resume_point(0)); // regresses below the ack
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let p = ReconnectPolicy::default();
        let a = p.backoff(3, 42);
        assert_eq!(a, p.backoff(3, 42));
        assert_ne!(p.backoff(3, 42), p.backoff(3, 43));
        for attempt in 0..p.attempts {
            let b = p.backoff(attempt, 7);
            assert!(b <= p.max_backoff.mul_f64(1.0 + p.jitter));
        }
        assert!(p.patience() >= Duration::from_secs(2));
        assert_eq!(ReconnectPolicy::none().patience(), Duration::from_secs(2));
    }
}
