//! Bounded queues, consumer notification, and completion tickets — the
//! plumbing between synchronous clients and the service's async pipelines.
//!
//! The backpressure contract lives here: producers never block and never
//! allocate unboundedly — a full queue returns [`SubmitError::Busy`]
//! immediately, and the client decides whether to retry, shed, or slow down.
//! Consumers are single async tasks; [`Notify`] carries the "something was
//! pushed" edge with a sticky pending bit so a notification between the
//! consumer's drain and its `wait().await` is never lost.

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

/// Single-consumer edge notification with a sticky pending bit.
///
/// `notify` marks the edge and wakes the registered consumer (if any);
/// `wait().await` completes immediately if an edge arrived since the last
/// wait, otherwise parks the consumer task. Extra notifications coalesce —
/// the consumer drains whole queues per wake, so edges need no counting.
#[derive(Default)]
pub struct Notify {
    state: Mutex<NotifyState>,
}

#[derive(Default)]
struct NotifyState {
    pending: bool,
    waker: Option<Waker>,
}

impl Notify {
    /// Creates an un-notified instance.
    pub fn new() -> Notify {
        Notify::default()
    }

    /// Marks the edge and wakes the waiting consumer, if any.
    pub fn notify(&self) {
        let waker = {
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            s.pending = true;
            s.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// A future resolving at the next edge (immediately, if one is pending).
    pub fn wait(&self) -> Notified<'_> {
        Notified { notify: self }
    }
}

/// Future returned by [`Notify::wait`].
pub struct Notified<'a> {
    notify: &'a Notify,
}

impl Future for Notified<'_> {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut s = self.notify.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.pending {
            s.pending = false;
            s.waker = None;
            Poll::Ready(())
        } else {
            s.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// A bounded multi-producer queue drained wholesale by one consumer.
///
/// Producers are synchronous ([`try_push`](BoundedQueue::try_push) never
/// blocks); the consumer drains with [`drain_into`](BoundedQueue::drain_into)
/// and parks on the [`Notify`] the queue was built with. Closing the queue
/// fails further pushes with [`SubmitError::Closed`] while letting the
/// consumer drain what was already accepted — no accepted item is ever
/// dropped by the queue itself.
pub struct BoundedQueue<I> {
    inner: Mutex<QueueInner<I>>,
    capacity: usize,
    notify: Arc<Notify>,
}

struct QueueInner<I> {
    items: VecDeque<I>,
    closed: bool,
}

impl<I> BoundedQueue<I> {
    /// A queue holding at most `capacity` items, notifying `notify` on push.
    pub fn new(capacity: usize, notify: Arc<Notify>) -> BoundedQueue<I> {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            notify,
        }
    }

    /// Enqueues `item`, or rejects it with `Busy` (full) / `Closed` (shut
    /// down). On success the consumer is notified, and the caller gets the
    /// depth of the queue with its item in it.
    pub fn try_push(&self, item: I) -> Result<usize, SubmitError> {
        let depth = {
            let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if q.closed {
                return Err(SubmitError::Closed);
            }
            if q.items.len() >= self.capacity {
                return Err(SubmitError::Busy);
            }
            q.items.push_back(item);
            q.items.len()
        };
        self.notify.notify();
        Ok(depth)
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

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rejects all future pushes with `Closed`; queued items stay drainable.
    /// The consumer is notified so it can run its final drain.
    pub fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.notify.notify();
    }

    /// True once [`close`](BoundedQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed
    }
}

/// One-shot completion cell linking a queued operation to its waiter: the
/// pipeline task completes it exactly once, the [`Ticket`] future resolves
/// with the value.
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

    /// True once a value has been stored and not yet taken.
    pub fn is_complete(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .value
            .is_some()
    }
}

/// The waiter half of an [`OpCell`]: a future resolving with the operation's
/// result, plus a synchronous [`wait`](Ticket::wait) bridge.
pub struct Ticket<V> {
    cell: Arc<OpCell<V>>,
}

impl<V> Ticket<V> {
    /// Wraps a cell into its waiter future.
    pub fn new(cell: Arc<OpCell<V>>) -> Ticket<V> {
        Ticket { cell }
    }

    /// True once the operation has completed: the next poll is `Ready`.
    pub fn is_complete(&self) -> bool {
        self.cell.is_complete()
    }

    /// Blocks the calling thread until the operation completes.
    pub fn wait(self) -> V {
        crate::executor::block_on(self)
    }
}

impl<V> Future for Ticket<V> {
    type Output = V;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<V> {
        let mut s = self.cell.state.lock().unwrap_or_else(|e| e.into_inner());
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
    use crate::executor::{block_on, Executor};

    #[test]
    fn try_push_hits_capacity_then_busy() {
        let q = BoundedQueue::new(2, Arc::new(Notify::new()));
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
        let q = BoundedQueue::new(4, Arc::new(Notify::new()));
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(SubmitError::Closed));
        assert!(q.is_closed());
        let mut sink = Vec::new();
        q.drain_into(&mut sink);
        assert_eq!(sink, vec![7]);
    }

    #[test]
    fn notify_edge_is_sticky_across_wait_registration() {
        let notify = Arc::new(Notify::new());
        // Edge before any waiter: the next wait resolves immediately.
        notify.notify();
        block_on(notify.wait());
        // And the edge is consumed: a second wait parks until notified.
        let exec = Executor::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        let n = Arc::clone(&notify);
        exec.spawn(async move {
            n.wait().await;
            tx.send(()).unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(rx.try_recv().is_err(), "wait resolved without an edge");
        notify.notify();
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("notified waiter never woke");
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
        let q = Arc::new(BoundedQueue::new(8, Arc::new(Notify::new())));
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
