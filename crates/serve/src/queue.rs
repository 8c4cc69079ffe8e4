//! Bounded queues and completion tickets, one-shot cells — the plumbing
//! between synchronous clients and the service's pipelines.
//!
//! The backpressure contract lives here: producers never block and never
//! allocate unboundedly — a full queue returns [`SubmitError::Busy`]
//! immediately, and the client decides whether to retry, shed, or slow down.
//! A queue is drained wholesale by whichever thread holds its pipeline's
//! role; a [`Ticket`] on a published request is how a waiter becomes that
//! thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::Thread;

use crate::wait::SERVE_SITE;

/// Why a submission was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity. Retry later; nothing was enqueued.
    Busy,
    /// The service is shutting down and no longer accepts work.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy => write!(f, "queue at capacity (backpressure)"),
            SubmitError::Closed => write!(f, "service closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A bounded multi-producer queue, drained wholesale.
///
/// Producers are synchronous ([`try_push`](BoundedQueue::try_push) never
/// blocks); whoever holds the pipeline's role drains with
/// [`drain_into`](BoundedQueue::drain_into). Closing the queue fails further
/// pushes with [`SubmitError::Closed`] while letting what was already
/// accepted be drained — no accepted item is ever dropped by the queue
/// itself.
pub struct BoundedQueue<I> {
    inner: Mutex<QueueInner<I>>,
    capacity: usize,
}

struct QueueInner<I> {
    items: VecDeque<I>,
    closed: bool,
}

impl<I> BoundedQueue<I> {
    /// A queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> BoundedQueue<I> {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `item`, or rejects it with `Busy` (full) / `Closed` (shut
    /// down).
    pub fn try_push(&self, item: I) -> Result<(), SubmitError> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if q.closed {
            return Err(SubmitError::Closed);
        }
        if q.items.len() >= self.capacity {
            return Err(SubmitError::Busy);
        }
        q.items.push_back(item);
        Ok(())
    }

    /// Moves every queued item into `sink`, preserving FIFO order. Returns
    /// the number of items moved.
    pub fn drain_into(&self, sink: &mut Vec<I>) -> usize {
        self.drain_into_with(sink, |_| {})
    }

    /// [`drain_into`](BoundedQueue::drain_into), calling `taken` on each
    /// item before the queue's lock is let go: whoever sees the queue empty
    /// also sees every `taken` call of the drain that emptied it.
    pub(crate) fn drain_into_with(&self, sink: &mut Vec<I>, taken: impl FnMut(&I)) -> usize {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let n = q.items.len();
        q.items.iter().for_each(taken);
        sink.extend(q.items.drain(..));
        n
    }

    /// Number of currently queued items (a racy gauge).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rejects all future pushes with `Closed`; queued items stay drainable.
    pub fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
    }

    /// True once [`close`](BoundedQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed
    }
}

/// One-shot completion cell linking a queued operation to its waiter: the
/// pipeline round that serves the operation completes it exactly once, the
/// [`Ticket`] takes the value.
pub struct OpCell<V> {
    state: Mutex<OpCellState<V>>,
    /// Set, under the lock, once `value` is in: what a waiter probes.
    done: AtomicBool,
}

struct OpCellState<V> {
    value: Option<V>,
    /// The thread parked on the cell, if one is.
    waiter: Option<Thread>,
}

impl<V> OpCell<V> {
    /// An empty cell wrapped for sharing between the pipeline and the waiter.
    pub fn new() -> Arc<OpCell<V>> {
        Arc::new(OpCell {
            state: Mutex::new(OpCellState {
                value: None,
                waiter: None,
            }),
            done: AtomicBool::new(false),
        })
    }

    /// Stores the value and wakes the waiter. Must be called at most once.
    pub fn complete(&self, value: V) {
        let waiter = {
            let mut s = self.lock();
            debug_assert!(s.value.is_none(), "operation completed twice");
            s.value = Some(value);
            self.done.store(true, Ordering::Release);
            s.waiter.take()
        };
        if let Some(thread) = waiter {
            thread.unpark();
        }
    }

    fn lock(&self) -> MutexGuard<'_, OpCellState<V>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Blocks until the cell is complete. Registered under the lock that
    /// `complete` sets `done` under, the waiter sees `done` or is unparked;
    /// the loop absorbs unparks meant for this thread's earlier waits.
    fn park(&self) {
        self.lock().waiter = Some(std::thread::current());
        while !self.is_done() {
            std::thread::park();
        }
    }
}

/// The two pipelines of a service, each with its own role.
#[derive(Clone, Copy)]
pub(crate) enum Lane {
    /// Submissions: drained from the ingest queue, applied in chunks.
    Ingest,
    /// Scan requests: answered inline when empty, else from the version
    /// chains or by one union scan.
    Scan,
}

/// What a waiting [`Ticket`] runs: the rounds of the pipeline its request
/// was published to.
pub(crate) trait Combine: Send + Sync {
    /// Runs rounds of `lane` on the calling thread if its role is free.
    fn combine_if_free(&self, lane: Lane);
}

/// The waiter half of an [`OpCell`]: [`try_take`](Ticket::try_take) looks
/// once, [`wait`](Ticket::wait) blocks.
///
/// A service ticket is also a combiner: each look that finds its operation
/// incomplete first runs a round of the operation's pipeline on the calling
/// thread, if nobody else holds that pipeline's role. Whoever holds it
/// re-checks the queue after letting go, so a look that found the role
/// taken can wait without stranding its request.
pub struct Ticket<V> {
    cell: Arc<OpCell<V>>,
    pipeline: Option<(Arc<dyn Combine>, Lane)>,
}

impl<V> Ticket<V> {
    /// Wraps a cell into its waiter. Waiting on it only waits: whatever
    /// completes `cell` runs elsewhere.
    pub fn new(cell: Arc<OpCell<V>>) -> Ticket<V> {
        Ticket {
            cell,
            pipeline: None,
        }
    }

    /// A ticket on a request published to `lane` of `pipeline`.
    pub(crate) fn published(
        cell: Arc<OpCell<V>>,
        pipeline: Arc<dyn Combine>,
        lane: Lane,
    ) -> Ticket<V> {
        Ticket {
            cell,
            pipeline: Some((pipeline, lane)),
        }
    }

    /// The operation's result if it is complete — after running its
    /// pipeline's rounds here if it was not and the role is free — or the
    /// ticket back: a role another thread holds is never waited for.
    pub fn try_take(self) -> Result<V, Ticket<V>> {
        if let Some((pipeline, lane)) = self.pipeline.as_ref().filter(|_| !self.cell.is_done()) {
            pipeline.combine_if_free(*lane);
        }
        let value = self.cell.lock().value.take();
        value.ok_or(self)
    }

    /// Blocks the calling thread until the operation completes: one
    /// [`try_take`](Ticket::try_take), then a wait through the thread's
    /// [`WaitSite`](crate::WaitSite): probing the cell's `done` flag
    /// briefly, then parked.
    pub fn wait(self) -> V {
        self.try_take().unwrap_or_else(|ticket| {
            let cell = &ticket.cell;
            SERVE_SITE
                .with_borrow_mut(|site| site.wait(|| cell.is_done().then_some(()), || cell.park()));
            let value = cell.lock().value.take();
            value.expect("a wait ends once its cell is complete")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn try_push_hits_capacity_then_busy() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_push(3), Err(SubmitError::Busy));
        let mut sink = Vec::new();
        assert_eq!(q.drain_into(&mut sink), 2);
        assert_eq!(sink, vec![1, 2]);
        assert_eq!(q.try_push(3), Ok(()));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn closed_queue_rejects_pushes_but_drains() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(SubmitError::Closed));
        assert!(q.is_closed());
        let mut sink = Vec::new();
        q.drain_into(&mut sink);
        assert_eq!(sink, vec![7]);
    }

    #[test]
    fn tickets_resolve_with_completed_values() {
        let cell = OpCell::new();
        let ticket = Ticket::new(Arc::clone(&cell));
        let waiter = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(std::time::Duration::from_millis(2));
        cell.complete(99u64);
        assert_eq!(waiter.join().unwrap(), 99);
    }

    #[test]
    fn producers_from_many_threads_never_exceed_capacity() {
        let q = Arc::new(BoundedQueue::new(8));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let q = Arc::clone(&q);
                scope.spawn(move || {
                    for i in 0..100 {
                        let _ = q.try_push(t * 1000 + i);
                        assert!(q.len() <= 8);
                    }
                });
            }
        });
        assert!(q.len() <= 8);
    }

    /// Whether a thread parks on `cell` within 10 s.
    fn parked_on<V>(cell: &OpCell<V>) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while cell.lock().waiter.is_none() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        cell.lock().waiter.is_some()
    }

    #[test]
    fn a_complete_ticket_returns_without_waiting_and_the_threads_site_is_reused() {
        let credit = || SERVE_SITE.with_borrow(|site| site.credit);
        SERVE_SITE.with_borrow_mut(|site| site.credit = 1);
        let cell = OpCell::new();
        cell.complete(1u64);
        assert_eq!(Ticket::new(cell).wait(), 1);
        assert_eq!(credit(), 1, "a complete ticket reached the site");
        // Completed only once the waiter has parked, so the wait outlasts a
        // poll phase and spends the credit of the site it ran on.
        let cell = OpCell::new();
        let completer = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                let parked = parked_on(&cell);
                cell.complete(2u64);
                parked
            })
        };
        assert_eq!(Ticket::new(cell).wait(), 2);
        assert!(completer.join().unwrap(), "the waiter never parked");
        assert_eq!(credit(), 0, "the wait ran on a site of its own");
    }

    #[test]
    fn completing_another_cell_never_ends_this_wait() {
        let (a, b) = (OpCell::new(), OpCell::new());
        let (tx, rx) = std::sync::mpsc::channel();
        let ticket = Ticket::new(Arc::clone(&a));
        let waiter = std::thread::spawn(move || tx.send(ticket.wait()).unwrap());
        assert!(parked_on(&a), "the waiter never parked");
        // Completing B unparks the waiter, as B's completer does when it
        // lands after an earlier wait of that thread on B has ended.
        b.lock().waiter = Some(waiter.thread().clone());
        b.complete(2u64);
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "ended without A"
        );
        a.complete(1u64);
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(1));
        waiter.join().unwrap();
    }

    /// 100 000 round trips between this thread and a responder thread, both
    /// waiting through `Ticket::wait`. Every fourth request is held back for
    /// 44–60 µs, in 0.1 µs steps: it lands while the responder, its poll
    /// phase spent, is between its last look at its doorbell and its park —
    /// the window the registration under the cell's lock closes. There is no
    /// park timeout, so a wake-up lost by either side hangs the test.
    #[test]
    fn a_hundred_thousand_round_ping_pong_finishes() {
        use crate::queue::{OpCell, Ticket};
        use std::collections::VecDeque;
        /// The requests, and the responder's doorbell while it waits for one.
        #[derive(Default)]
        struct Inbox {
            requests: VecDeque<(u64, Arc<OpCell<u64>>)>,
            bell: Option<Arc<OpCell<()>>>,
            closed: bool,
        }
        let inbox: Arc<Mutex<Inbox>> = Arc::default();
        let responder_inbox = Arc::clone(&inbox);
        let responder = std::thread::spawn(move || loop {
            let bell = {
                let mut inbox = responder_inbox.lock().unwrap();
                for (round, cell) in inbox.requests.drain(..) {
                    cell.complete(round + 1);
                }
                if inbox.closed {
                    return;
                }
                Arc::clone(inbox.bell.insert(OpCell::new()))
            };
            Ticket::new(bell).wait();
        });
        let send = |request: Option<(u64, Arc<OpCell<u64>>)>| {
            let bell = {
                let mut inbox = inbox.lock().unwrap();
                match request {
                    Some(request) => inbox.requests.push_back(request),
                    None => inbox.closed = true,
                }
                inbox.bell.take()
            };
            if let Some(bell) = bell {
                bell.complete(());
            }
        };
        for round in 0..100_000u64 {
            if round % 4 == 0 {
                let pause = Duration::from_nanos(44_000 + round / 4 % 160 * 100);
                let t0 = Instant::now();
                while t0.elapsed() < pause {
                    std::hint::spin_loop();
                }
            }
            let cell = OpCell::new();
            send(Some((round, Arc::clone(&cell))));
            assert_eq!(Ticket::new(cell).wait(), round + 1);
        }
        send(None);
        responder.join().unwrap();
    }
}
