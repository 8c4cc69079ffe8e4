//! Bounded queues and completion tickets — the plumbing between
//! synchronous clients and the service's pipelines.
//!
//! The backpressure contract lives here: producers never block and never
//! allocate unboundedly — a full queue returns [`SubmitError::Busy`]
//! immediately, and the client decides whether to retry, shed, or slow down.
//! A queue is drained wholesale by whichever thread holds its pipeline's
//! role; a [`Ticket`] on a published request is how a waiter becomes that
//! thread.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

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
    /// down). On success the caller gets the depth of the queue with its
    /// item in it.
    pub fn try_push(&self, item: I) -> Result<usize, SubmitError> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if q.closed {
            return Err(SubmitError::Closed);
        }
        if q.items.len() >= self.capacity {
            return Err(SubmitError::Busy);
        }
        q.items.push_back(item);
        Ok(q.items.len())
    }

    /// Moves every queued item into `sink`, preserving FIFO order. Returns
    /// the number of items moved.
    pub fn drain_into(&self, sink: &mut Vec<I>) -> usize {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let n = q.items.len();
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
/// [`Ticket`] future resolves with the value.
pub struct OpCell<V> {
    state: Mutex<OpCellState<V>>,
}

struct OpCellState<V> {
    value: Option<V>,
    waker: Option<Waker>,
}

impl<V> OpCell<V> {
    /// An empty cell wrapped for sharing between the pipeline and the waiter.
    pub fn new() -> Arc<OpCell<V>> {
        Arc::new(OpCell {
            state: Mutex::new(OpCellState {
                value: None,
                waker: None,
            }),
        })
    }

    /// Stores the value and wakes the waiter. Must be called at most once.
    pub fn complete(&self, value: V) {
        let waker = {
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            debug_assert!(s.value.is_none(), "operation completed twice");
            s.value = Some(value);
            s.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// The two pipelines of a service, each with its own role.
#[derive(Clone, Copy)]
pub(crate) enum Lane {
    /// Submissions: collected from every client queue, applied in chunks.
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

/// The waiter half of an [`OpCell`]: a future resolving with the operation's
/// result, plus a synchronous [`wait`](Ticket::wait) bridge.
///
/// A service ticket is also a combiner: each poll that finds its operation
/// incomplete first runs a round of the operation's pipeline on the polling
/// thread, if nobody else holds that pipeline's role. Whoever holds it
/// re-checks the queue after letting go, so a poll that found the role
/// taken can wait without stranding its request.
pub struct Ticket<V> {
    cell: Arc<OpCell<V>>,
    pipeline: Option<(Arc<dyn Combine>, Lane)>,
}

impl<V> Ticket<V> {
    /// Wraps a cell into its waiter future. Polling it only waits: whatever
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

    /// Blocks the calling thread until the operation completes, running its
    /// pipeline's rounds whenever the role is free.
    pub fn wait(self) -> V {
        crate::executor::block_on(self)
    }
}

impl<V> Future for Ticket<V> {
    type Output = V;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<V> {
        let lock = || self.cell.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((pipeline, lane)) = &self.pipeline {
            if lock().value.is_none() {
                pipeline.combine_if_free(*lane);
            }
        }
        let mut s = lock();
        match s.value.take() {
            Some(v) => Poll::Ready(v),
            None => {
                s.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_push_hits_capacity_then_busy() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(SubmitError::Busy));
        let mut sink = Vec::new();
        assert_eq!(q.drain_into(&mut sink), 2);
        assert_eq!(sink, vec![1, 2]);
        assert_eq!(q.try_push(3), Ok(1));
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
}
