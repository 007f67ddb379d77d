//! Bounded per-tenant admission queues with drop/defer accounting.
//!
//! An open-loop front end cannot push back on its users; it can only bound
//! how much work it holds. Each tenant owns one [`AdmissionQueue`] of bounded
//! depth. An arrival that finds the queue full is handled by the tenant's
//! [`OverflowPolicy`]:
//!
//! * [`OverflowPolicy::Drop`] — the request is rejected and counted; it never
//!   consumes service (load shedding — how goodput survives overload),
//! * [`OverflowPolicy::Defer`] — the request waits in an unbounded spillover
//!   buffer and is admitted (in arrival order) as soon as the bounded queue
//!   has room; the deferral is counted once.
//!
//! Every transition increments exactly one counter, giving the conservation
//! law the serving proptests lock: at any instant
//! `offered == completed + dropped + in_flight` (where in-flight counts
//! queued + deferred + in-service requests), and at drain — when all queues
//! are empty and nothing is in service — `offered == completed + dropped`.

use std::collections::VecDeque;

use serde::Serialize;

/// What a full admission queue does with a new arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum OverflowPolicy {
    /// Reject the request (count it and forget it).
    Drop,
    /// Park the request in an unbounded spillover buffer until the bounded
    /// queue has room; admission preserves arrival order.
    Defer,
}

impl OverflowPolicy {
    /// Short label for artifact rows.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            OverflowPolicy::Drop => "drop",
            OverflowPolicy::Defer => "defer",
        }
    }
}

/// One queued inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Request {
    /// Per-tenant arrival sequence number (0-based, strictly increasing).
    pub seq: u64,
    /// Cycle at which the request arrived at the front end.
    pub arrival_cycle: u64,
}

/// Counters of one tenant's admission queue, maintained so that
/// `offered == admitted + dropped + deferred_waiting` and
/// `admitted == completed + in_queue + in_service` hold at every instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct QueueStats {
    /// Requests the arrival process offered (everything that arrived).
    pub offered: u64,
    /// Requests admitted into the bounded queue (possibly after a deferral).
    pub admitted: u64,
    /// Requests rejected by [`OverflowPolicy::Drop`].
    pub dropped: u64,
    /// Requests that went through the spillover buffer at least once.
    pub deferred: u64,
    /// Requests whose service finished.
    pub completed: u64,
    /// Deepest the bounded queue ever got.
    pub peak_depth: u64,
}

/// A bounded FIFO admission queue with drop/defer overflow accounting.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    depth_limit: usize,
    overflow: OverflowPolicy,
    queue: VecDeque<Request>,
    spillover: VecDeque<Request>,
    stats: QueueStats,
}

impl AdmissionQueue {
    /// Creates an empty queue with the given bounded depth (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics on a zero depth limit — a queue that can hold nothing can
    /// admit nothing.
    #[must_use]
    pub fn new(depth_limit: usize, overflow: OverflowPolicy) -> Self {
        assert!(depth_limit > 0, "admission queue depth must be at least 1");
        AdmissionQueue {
            depth_limit,
            overflow,
            queue: VecDeque::new(),
            spillover: VecDeque::new(),
            stats: QueueStats::default(),
        }
    }

    /// Offers one arrival. Admits it if the bounded queue has room, otherwise
    /// applies the overflow policy. Spillover from earlier deferrals is
    /// admitted first so arrival order is preserved.
    pub fn offer(&mut self, request: Request) {
        self.stats.offered += 1;
        self.admit_deferred();
        if self.queue.len() < self.depth_limit && self.spillover.is_empty() {
            self.push_admitted(request);
        } else {
            match self.overflow {
                OverflowPolicy::Drop => self.stats.dropped += 1,
                OverflowPolicy::Defer => {
                    self.stats.deferred += 1;
                    self.spillover.push_back(request);
                }
            }
        }
    }

    /// Moves deferred requests into the bounded queue while there is room
    /// (called after every service pop and before every admission, so a
    /// deferred request is admitted at the first opportunity).
    pub fn admit_deferred(&mut self) {
        while self.queue.len() < self.depth_limit {
            let Some(request) = self.spillover.pop_front() else {
                return;
            };
            self.push_admitted(request);
        }
    }

    fn push_admitted(&mut self, request: Request) {
        self.queue.push_back(request);
        self.stats.admitted += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.queue.len() as u64);
    }

    /// Pops the request at the head of the queue for service (FIFO), backfilling
    /// from the spillover buffer.
    pub fn pop_for_service(&mut self) -> Option<Request> {
        let request = self.queue.pop_front()?;
        self.admit_deferred();
        Some(request)
    }

    /// Records one completed request.
    pub fn complete(&mut self) {
        self.stats.completed += 1;
    }

    /// Requests currently waiting (bounded queue + spillover).
    #[must_use]
    pub fn waiting(&self) -> u64 {
        (self.queue.len() + self.spillover.len()) as u64
    }

    /// Requests currently in the bounded queue.
    #[must_use]
    pub fn depth(&self) -> u64 {
        self.queue.len() as u64
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(seq: u64) -> Request {
        Request {
            seq,
            arrival_cycle: seq * 10,
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_depth_is_rejected() {
        let _ = AdmissionQueue::new(0, OverflowPolicy::Drop);
    }

    #[test]
    fn drop_policy_sheds_overflow_and_conserves_requests() {
        let mut q = AdmissionQueue::new(2, OverflowPolicy::Drop);
        for seq in 0..5 {
            q.offer(request(seq));
        }
        let s = q.stats();
        assert_eq!((s.offered, s.admitted, s.dropped), (5, 2, 3));
        assert_eq!(s.peak_depth, 2);
        assert_eq!(s.offered, s.admitted + s.dropped, "conservation at rest");
        // Service pops in FIFO order; dropped requests never reappear.
        assert_eq!(q.pop_for_service().unwrap().seq, 0);
        assert_eq!(q.pop_for_service().unwrap().seq, 1);
        assert!(q.pop_for_service().is_none());
    }

    #[test]
    fn defer_policy_loses_nothing_and_preserves_order() {
        let mut q = AdmissionQueue::new(2, OverflowPolicy::Defer);
        for seq in 0..5 {
            q.offer(request(seq));
        }
        let s = q.stats();
        assert_eq!((s.offered, s.dropped, s.deferred), (5, 0, 3));
        assert_eq!(q.waiting(), 5);
        // Every request surfaces exactly once, in arrival order, as service
        // frees queue slots.
        let mut served = Vec::new();
        while let Some(r) = q.pop_for_service() {
            served.push(r.seq);
            q.complete();
        }
        assert_eq!(served, vec![0, 1, 2, 3, 4]);
        let s = q.stats();
        assert_eq!(s.admitted, 5, "deferred requests are admitted exactly once");
        assert_eq!(s.completed, 5);
        assert_eq!(s.offered, s.completed + s.dropped, "conservation at drain");
    }

    #[test]
    fn deferred_requests_admit_before_new_arrivals() {
        // A new arrival must not jump over older spillover: request 2 is
        // deferred while 0/1 occupy the queue; after a pop, 2 enters before a
        // newly offered 3.
        let mut q = AdmissionQueue::new(2, OverflowPolicy::Defer);
        for seq in 0..3 {
            q.offer(request(seq));
        }
        assert_eq!(q.pop_for_service().unwrap().seq, 0);
        q.offer(request(3));
        assert_eq!(q.pop_for_service().unwrap().seq, 1);
        assert_eq!(q.pop_for_service().unwrap().seq, 2);
        assert_eq!(q.pop_for_service().unwrap().seq, 3);
    }
}
