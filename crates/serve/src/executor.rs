//! A small, dependency-free async runtime.
//!
//! The no-new-deps constraint rules out tokio, so the service layer runs on
//! this hand-rolled executor: a fixed pool of worker threads polling tasks
//! from **sharded run queues** (one queue per worker, with work stealing, so
//! unrelated tasks do not contend on one global lock), wakers built on
//! [`std::task::Wake`], and a **timer wheel** driven by a dedicated tick
//! thread for `sleep`-style futures (the scan coalescing window). A
//! [`block_on`] bridge lets synchronous client threads await service tickets,
//! and [`Handle::help`] lets a thread that is about to block poll queued
//! tasks itself instead of waiting for a worker to be woken for them.
//! Every thread that waits here — a worker out of tasks, a `block_on`
//! caller — waits through one primitive, [`WaitSite`]: poll briefly, then
//! park.
//!
//! The design favours auditability over raw scheduler throughput: every
//! scheduling transition is a small state machine on one atomic
//! (`IDLE → QUEUED → RUNNING → {IDLE, QUEUED}` with a `NOTIFIED` flag for
//! wake-during-poll), the classic lost-wakeup race is closed by re-checking
//! the queues under the sleep lock before parking, and dropped executors
//! simply stop polling — pipeline owners are expected to shut their tasks
//! down first (see `SnapshotService::shutdown`).

use std::cell::Cell;
use std::collections::VecDeque;
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use psnap_obs::{Counter, Registry};
use psnap_shmem::chaos::{self, ChaosConfig};

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Configuration of an [`Executor`].
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    /// Number of worker threads (and run-queue shards). Clamped to ≥ 1.
    pub workers: usize,
    /// Granularity of the timer wheel: deadlines are rounded up to the next
    /// tick, so this bounds the wheel's precision. The tick thread wakes
    /// only at ticks that hold an entry, never more often than this.
    pub timer_granularity: Duration,
    /// If set, every worker thread enables the chaos layer with
    /// `(seed + worker index, config)` for its whole life, so service
    /// pipeline tasks (the ingestion drainer, the scan server) are perturbed
    /// at base-object boundaries exactly like scenario threads — this is how
    /// the seam tests park the drainer mid-coalesce.
    pub chaos: Option<(u64, ChaosConfig)>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 2,
            timer_granularity: Duration::from_micros(100),
            chaos: None,
        }
    }
}

/// Scheduling states of a task (one `AtomicU8` per task).
const IDLE: u8 = 0; // not queued, not running; a wake must enqueue it
const QUEUED: u8 = 1; // sitting in a run queue
const RUNNING: u8 = 2; // being polled by a worker
const NOTIFIED: u8 = 3; // woken while running; requeue after the poll
const DONE: u8 = 4; // future completed; wakes are no-ops

struct Task {
    future: Mutex<Option<BoxFuture>>,
    state: AtomicU8,
    /// Home run-queue shard (round-robin at spawn time).
    home: usize,
    exec: Weak<Shared>,
}

impl Task {
    /// Transitions the task towards QUEUED and enqueues it if this call won
    /// the transition. Safe to call from any thread, any number of times.
    fn schedule(self: Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        if let Some(exec) = self.exec.upgrade() {
                            exec.push(self.home, self);
                        }
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued, already notified, or finished: nothing to do.
                _ => return,
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        Arc::clone(self).schedule();
    }
}

/// One run-queue shard. Padded so two workers' queues never share a line.
#[repr(align(64))]
struct Shard {
    queue: Mutex<VecDeque<Arc<Task>>>,
}

struct Shared {
    shards: Vec<Shard>,
    /// Guards the sleep/wake protocol: workers re-check the queues while
    /// holding this lock before parking, and producers notify while holding
    /// it, so a push can never slip between a worker's last check and its
    /// park (the classic lost-wakeup race).
    sleep: Mutex<()>,
    wakeup: Condvar,
    /// Workers inside the sleep protocol (incremented under the sleep lock
    /// before the final queue re-check). Producers consult it so the hot
    /// path — every spawn and every waker fire while the workers are busy —
    /// never touches the global sleep lock; it is taken only when someone
    /// may actually be parked.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    next_home: AtomicUsize,
    timer: TimerWheel,
    chaos: Option<(u64, ChaosConfig)>,
    /// Helper registrations so far; offsets each helper's chaos seed past
    /// the workers' (see [`Handle::helper`]).
    helpers: AtomicUsize,
}

thread_local! {
    /// Identity ([`Shared::id`]) of the executor the calling thread is a
    /// registered [`Helper`] of and currently *outside* a task poll; 0
    /// otherwise. Compared, never dereferenced.
    static HELPER_OF: Cell<usize> = const { Cell::new(0) };
}

impl Shared {
    /// Address of this executor's shared state: stable for as long as any
    /// `Arc` or `Weak` to it exists, which every [`Helper`] guarantees.
    fn id(&self) -> usize {
        self as *const Shared as usize
    }

    fn push(&self, home: usize, task: Arc<Task>) {
        self.shards[home % self.shards.len()]
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(task);
        // A registered helper pops this task itself before it blocks (or
        // hands it over, see `Helper`), so waking a worker for it would buy
        // only a context switch and a race for the queue lock.
        if HELPER_OF.get() == self.id() {
            return;
        }
        self.notify_sleeper();
    }

    /// Wakes one parked worker, if any might be parked.
    fn notify_sleeper(&self) {
        // If a worker might be parked (or about to park), synchronize with
        // it through the sleep lock; a parking worker increments `sleepers`
        // under that lock *before* its final has-work re-check, so either it
        // sees the caller's push in the re-check, or this load sees its
        // increment and the locked notify below reaches its wait.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.sleep.lock().unwrap_or_else(|e| e.into_inner());
            self.wakeup.notify_one();
        }
    }

    /// Wakes one parked worker if tasks are queued: the caller leaves them
    /// behind (it is about to sit in a poll, or is done helping).
    fn hand_over(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 && self.has_work() {
            self.notify_sleeper();
        }
    }

    /// Pops a task, preferring the worker's own shard, then stealing.
    fn pop(&self, own: usize) -> Option<Arc<Task>> {
        let k = self.shards.len();
        for i in 0..k {
            let shard = &self.shards[(own + i) % k];
            let mut q = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(task) = q.pop_front() {
                return Some(task);
            }
        }
        None
    }

    fn has_work(&self) -> bool {
        self.shards
            .iter()
            .any(|s| !s.queue.lock().unwrap_or_else(|e| e.into_inner()).is_empty())
    }
}

/// How long a worker parks before it re-checks the queues unprompted. This
/// crate's unit tests run without the net, so a lost wake-up hangs them
/// instead of costing 20 ms.
const PARK_TIMEOUT: Duration = if cfg!(test) {
    Duration::from_secs(3600)
} else {
    Duration::from_millis(20)
};

fn worker_loop(shared: Arc<Shared>, index: usize) {
    let _chaos_guard = shared
        .chaos
        .clone()
        .map(|(seed, cfg)| chaos::enable(seed.wrapping_add(index as u64), cfg));
    let mut site = WaitSite::new(serve_waits());
    loop {
        if let Some(task) = shared.pop(index) {
            poll_task(task);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Polls its queues first: a producer that finds no sleeper skips
        // the locked notify, so a push caught here costs neither side a
        // futex call. The probe is unlocked and racy; the park protocol
        // behind it is the one correctness rests on.
        let task = site.wait(
            || shared.pop(index).map(Some),
            || {
                let guard = shared.sleep.lock().unwrap_or_else(|e| e.into_inner());
                // Announce intent to sleep *before* the final re-check: a
                // producer that misses this increment (reads sleepers == 0,
                // skips the locked notify) pushed before it, and SeqCst
                // ordering then guarantees the re-check below sees that
                // push; a producer that sees the increment takes the sleep
                // lock, which we hold until `wait` releases it, so its
                // notify cannot fire in the gap before we park.
                shared.sleepers.fetch_add(1, Ordering::SeqCst);
                if !shared.has_work() && !shared.shutdown.load(Ordering::Acquire) {
                    // The timeout is pure belt-and-braces; correctness rests
                    // on the re-check above.
                    let _ = shared.wakeup.wait_timeout(guard, PARK_TIMEOUT);
                }
                shared.sleepers.fetch_sub(1, Ordering::SeqCst);
                None
            },
        );
        if let Some(task) = task {
            poll_task(task);
        }
    }
}

fn poll_task(task: Arc<Task>) {
    task.state.store(RUNNING, Ordering::Release);
    let waker = Waker::from(Arc::clone(&task));
    let mut cx = Context::from_waker(&waker);
    let mut slot = task.future.lock().unwrap_or_else(|e| e.into_inner());
    let Some(future) = slot.as_mut() else {
        task.state.store(DONE, Ordering::Release);
        return;
    };
    match future.as_mut().poll(&mut cx) {
        Poll::Ready(()) => {
            *slot = None;
            drop(slot);
            task.state.store(DONE, Ordering::Release);
        }
        Poll::Pending => {
            drop(slot);
            // RUNNING → IDLE, unless a wake arrived mid-poll (NOTIFIED), in
            // which case the task goes straight back to its queue.
            if task
                .state
                .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                task.state.store(QUEUED, Ordering::Release);
                if let Some(exec) = task.exec.upgrade() {
                    exec.push(task.home, task);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

const WHEEL_SLOTS: usize = 256;

struct WheelEntry {
    /// Absolute tick at which the entry fires.
    deadline_tick: u64,
    waker: Waker,
}

struct WheelState {
    /// `slots[t % WHEEL_SLOTS]` holds every entry whose deadline tick is
    /// congruent to `t`; entries of a later lap stay in the slot until their
    /// tick actually arrives.
    slots: Vec<Vec<WheelEntry>>,
    current_tick: u64,
    /// Smallest `deadline_tick` of any entry, `None` while the wheel is
    /// empty: what the tick thread sleeps to.
    earliest: Option<u64>,
}

struct TimerWheel {
    state: Mutex<WheelState>,
    /// Wakes the tick thread when `earliest` moves forward in time (an
    /// earlier registration, or the first one) and at shutdown.
    rearm: Condvar,
    start: Instant,
    granularity: Duration,
    shutdown: AtomicBool,
}

impl TimerWheel {
    fn new(granularity: Duration) -> TimerWheel {
        TimerWheel {
            state: Mutex::new(WheelState {
                slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
                current_tick: 0,
                earliest: None,
            }),
            rearm: Condvar::new(),
            start: Instant::now(),
            granularity: granularity.max(Duration::from_micros(10)),
            shutdown: AtomicBool::new(false),
        }
    }

    fn tick_of(&self, deadline: Instant) -> u64 {
        let elapsed = deadline.saturating_duration_since(self.start);
        // Round up: an entry must never fire before its deadline.
        elapsed.as_nanos().div_ceil(self.granularity.as_nanos()) as u64
    }

    /// Registers `waker` to fire at `deadline`. Returns false if the deadline
    /// already passed (the caller should complete immediately).
    fn register(&self, deadline: Instant, waker: Waker) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let tick = self.tick_of(deadline).max(state.current_tick + 1);
        if Instant::now() >= deadline {
            return false;
        }
        state.slots[(tick as usize) % WHEEL_SLOTS].push(WheelEntry {
            deadline_tick: tick,
            waker,
        });
        if state.earliest.is_none_or(|earliest| tick < earliest) {
            state.earliest = Some(tick);
            self.rearm.notify_one();
        }
        true
    }

    /// Advances the wheel to the tick matching `now`, waking every entry
    /// whose tick has been reached.
    fn advance(&self, now: Instant) {
        let target = self.tick_of(now);
        let mut fired = Vec::new();
        {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            // Walk at most one full lap: beyond that, every slot has been
            // visited once and filtering by deadline covers the rest.
            let first = state.current_tick + 1;
            let last = target.min(state.current_tick + WHEEL_SLOTS as u64);
            for tick in first..=last {
                let slot = &mut state.slots[(tick as usize) % WHEEL_SLOTS];
                let mut i = 0;
                while i < slot.len() {
                    if slot[i].deadline_tick <= target {
                        fired.push(slot.swap_remove(i).waker);
                    } else {
                        i += 1;
                    }
                }
            }
            state.current_tick = target;
            state.earliest = state
                .slots
                .iter()
                .flatten()
                .map(|entry| entry.deadline_tick)
                .min();
        }
        for waker in fired {
            waker.wake();
        }
    }
}

/// The tick thread: sleeps to the earliest registered tick — parked while
/// the wheel is empty, re-armed by an earlier registration — so an idle
/// wheel costs no wake-ups at all.
fn timer_loop(shared: Arc<Shared>) {
    let timer = &shared.timer;
    let mut state = timer.state.lock().unwrap_or_else(|e| e.into_inner());
    while !timer.shutdown.load(Ordering::Acquire) {
        let Some(tick) = state.earliest else {
            state = timer.rearm.wait(state).unwrap_or_else(|e| e.into_inner());
            continue;
        };
        let due = timer.start
            + Duration::from_nanos((timer.granularity.as_nanos() as u64).saturating_mul(tick));
        let now = Instant::now();
        if now < due {
            state = timer
                .rearm
                .wait_timeout(state, due - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            continue;
        }
        drop(state);
        timer.advance(now);
        state = timer.state.lock().unwrap_or_else(|e| e.into_inner());
    }
    drop(state);
    // Final sweep so no sleeper is stranded across shutdown.
    shared
        .timer
        .advance(Instant::now() + Duration::from_secs(3600));
}

/// A timer future registered on the executor's wheel; resolves once the
/// deadline has passed. Created by [`Handle::sleep`].
pub struct Sleep {
    shared: Weak<Shared>,
    deadline: Instant,
}

impl Future for Sleep {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.deadline {
            return Poll::Ready(());
        }
        let Some(shared) = self.shared.upgrade() else {
            // Executor gone: resolve rather than pend forever.
            return Poll::Ready(());
        };
        if shared.timer.register(self.deadline, cx.waker().clone()) {
            Poll::Pending
        } else {
            Poll::Ready(())
        }
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// A cheap, cloneable handle for spawning tasks and creating timers on an
/// [`Executor`]. Handles hold only a weak reference: once the executor is
/// dropped, `spawn` becomes a no-op and `sleep` resolves immediately.
#[derive(Clone)]
pub struct Handle {
    shared: Weak<Shared>,
}

impl Handle {
    /// Spawns a future onto one of the executor's run-queue shards
    /// (round-robin). The future runs to completion in the background.
    pub fn spawn<F>(&self, future: F)
    where
        F: Future<Output = ()> + Send + 'static,
    {
        let Some(shared) = self.shared.upgrade() else {
            return;
        };
        let home = shared.next_home.fetch_add(1, Ordering::Relaxed);
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(future))),
            state: AtomicU8::new(QUEUED),
            home,
            exec: Arc::downgrade(&shared),
        });
        shared.push(home, task);
    }

    /// A future that resolves once `duration` has elapsed, with the
    /// executor's timer-wheel granularity.
    pub fn sleep(&self, duration: Duration) -> Sleep {
        Sleep {
            shared: self.shared.clone(),
            deadline: Instant::now() + duration,
        }
    }

    /// Polls queued tasks on the calling thread until the run queues are
    /// empty or `done()` holds (checked before each task is taken), and
    /// returns how many it polled. For a thread that is about to block on
    /// results those tasks produce: it does the work it would otherwise
    /// wait for, instead of paying a hand-off to a worker and one back.
    ///
    /// Any thread is a legal poller — the task state machine does not care
    /// who runs a poll — but a helped task occupies the caller for as long
    /// as its poll takes, exactly as it would occupy a worker: help only
    /// when the tasks' polls are bounded. Tasks are never stranded behind
    /// the caller: whenever it takes a task and more remain queued, or
    /// stops with tasks still queued, it wakes a parked worker for them.
    pub fn help(&self, mut done: impl FnMut() -> bool) -> usize {
        let Some(shared) = self.shared.upgrade() else {
            return 0;
        };
        let mut polled = 0;
        while !done() {
            let Some(task) = shared.pop(0) else {
                return polled;
            };
            shared.hand_over();
            // Inside the poll this thread is an ordinary poller: what the
            // task spawns or wakes may need a worker *now* (parallel union
            // jobs), so those pushes notify.
            let registered = HELPER_OF.replace(0);
            poll_task(task);
            HELPER_OF.set(registered);
            polled += 1;
        }
        shared.hand_over();
        polled
    }

    /// Registers the calling thread as a helper until the guard drops.
    ///
    /// A helper promises to call [`help`](Handle::help) before it next
    /// blocks. In exchange, tasks it wakes or spawns *outside* a task poll
    /// do not wake a parked worker: the helper pops them itself. Dropping
    /// the guard hands whatever is still queued to a worker, so the promise
    /// cannot be broken by an early return. Like a worker thread, a helper
    /// runs under [`ExecutorConfig::chaos`] when that is set.
    pub fn helper(&self) -> Helper {
        let shared = self.shared.upgrade();
        // Seeds continue past the workers' (`seed + worker index`); a thread
        // that already runs under its own chaos keeps it.
        let chaos = shared.as_ref().and_then(|shared| {
            let (seed, cfg) = shared.chaos.clone().filter(|_| !chaos::is_enabled())?;
            let n = shared.shards.len() + shared.helpers.fetch_add(1, Ordering::Relaxed);
            Some(chaos::enable(seed.wrapping_add(n as u64), cfg))
        });
        let id = shared.as_ref().map_or(0, |shared| shared.id());
        Helper {
            handle: self.clone(),
            outer: HELPER_OF.replace(id),
            _chaos: chaos,
            _not_send: PhantomData,
        }
    }
}

/// Registration of the current thread as a helper of one executor; see
/// [`Handle::helper`].
pub struct Helper {
    /// Keeps the executor's allocation (hence its identity) alive.
    handle: Handle,
    /// The registration this one shadows, restored on drop.
    outer: usize,
    _chaos: Option<chaos::ChaosGuard>,
    /// The registration lives in a thread-local.
    _not_send: PhantomData<*const ()>,
}

impl Helper {
    /// [`Handle::help`] on the executor this thread is registered with.
    pub fn help(&self, done: impl FnMut() -> bool) -> usize {
        self.handle.help(done)
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        HELPER_OF.set(self.outer);
        if let Some(shared) = self.handle.shared.upgrade() {
            shared.hand_over();
        }
    }
}

/// The hand-rolled executor: worker threads over sharded run queues plus a
/// timer-wheel thread. Dropping it shuts the workers down; tasks that have
/// not completed are dropped.
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    timer_thread: Option<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// An executor with `workers` worker threads and default timer
    /// granularity.
    pub fn new(workers: usize) -> Executor {
        Executor::with_config(ExecutorConfig {
            workers,
            ..ExecutorConfig::default()
        })
    }

    /// An executor with the given configuration.
    pub fn with_config(config: ExecutorConfig) -> Executor {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            shards: (0..workers)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                })
                .collect(),
            sleep: Mutex::new(()),
            wakeup: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            next_home: AtomicUsize::new(0),
            timer: TimerWheel::new(config.timer_granularity),
            chaos: config.chaos,
            helpers: AtomicUsize::new(0),
        });
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("psnap-serve-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawning executor worker")
            })
            .collect();
        let timer_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("psnap-serve-timer".into())
                .spawn(move || timer_loop(shared))
                .expect("spawning timer thread")
        };
        Executor {
            shared,
            workers: worker_handles,
            timer_thread: Some(timer_thread),
        }
    }

    /// A cloneable spawning/timer handle.
    pub fn handle(&self) -> Handle {
        Handle {
            shared: Arc::downgrade(&self.shared),
        }
    }

    /// Spawns a future (see [`Handle::spawn`]).
    pub fn spawn<F>(&self, future: F)
    where
        F: Future<Output = ()> + Send + 'static,
    {
        self.handle().spawn(future);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            // Under the wheel lock, so the tick thread is either before its
            // shutdown check or already waiting on `rearm`.
            let _g = (self.shared.timer.state.lock()).unwrap_or_else(|e| e.into_inner());
            self.shared.timer.shutdown.store(true, Ordering::Release);
            self.shared.timer.rearm.notify_one();
        }
        {
            let _g = self.shared.sleep.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.wakeup.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(t) = self.timer_thread.take() {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Waiting: poll, then park
// ---------------------------------------------------------------------------

/// Longest a wait polls before it parks: about twice what a hand-off to a
/// sleeping thread costs on a slow box (17–27 µs measured), so a reply that
/// is on its way is caught, and a wait that outlasts it was going to pay
/// for a sleep anyway.
const POLL_CAP: Duration = Duration::from_micros(50);

/// Long waits in a row a [`WaitSite`] pays a poll phase for before it
/// stops polling: an idle site costs at most `CREDIT × POLL_CAP`, once.
const CREDIT: u8 = 3;

/// The three counters of one family of waiting sites, created in (and so
/// readable from) the global [`Registry`]: `<family>.polled` — waits that
/// ended in the poll phase, nobody slept; `<family>.parked` — waits that
/// reached the park protocol; `<family>.poll_ns` — time spent in poll
/// phases, whether they hit or not.
pub struct WaitCounters {
    polled: Arc<Counter>,
    parked: Arc<Counter>,
    poll_ns: Arc<Counter>,
}

impl WaitCounters {
    /// The counters `<family>.{polled, parked, poll_ns}` of the global
    /// registry, created if absent.
    pub fn named(family: &str) -> WaitCounters {
        let counter = |name: &str| Registry::global().counter(&format!("{family}.{name}"));
        WaitCounters {
            polled: counter("polled"),
            parked: counter("parked"),
            poll_ns: counter("poll_ns"),
        }
    }
}

/// `serve.wait.*`: executor workers out of tasks, and [`block_on`] callers.
fn serve_waits() -> &'static WaitCounters {
    static COUNTERS: OnceLock<WaitCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| WaitCounters::named("serve.wait"))
}

/// One place where one thread at a time waits for another to produce
/// something: it polls for up to `POLL_CAP` (probe, `yield_now`, probe …)
/// and only then runs the site's park protocol, which is what correctness
/// rests on — the poll phase may be deleted without losing a wake-up.
///
/// A sleeping thread is expensive to hand work to (the waker pays a futex
/// call, the sleeper a wake-up: 1 µs to tens of µs either side), while a
/// polling one takes it in the time of a cache miss. Polling is only worth
/// a core when the wait is short, so the site sizes itself: a wait that
/// ends within `POLL_CAP`, polled or parked, refills a small credit; one
/// that does not spends one; at zero the site parks at once, and the next
/// short wait re-arms it. A busy site never sleeps, an idle one polls
/// `CREDIT` times and then costs what a plain park costs. `yield_now`
/// between probes hands the core to any runnable thread, so pollers on an
/// oversubscribed box do not starve the threads they wait for. Probes are
/// not base-object steps.
pub struct WaitSite {
    credit: u8,
    counters: &'static WaitCounters,
}

impl WaitSite {
    /// A site with full credit, counted under `counters`.
    pub fn new(counters: &'static WaitCounters) -> WaitSite {
        WaitSite {
            credit: CREDIT,
            counters,
        }
    }

    /// Waits for what `probe` looks for. `probe` never blocks and returns
    /// `Some` once the awaited thing is there (consuming it); `park` is the
    /// site's blocking protocol, complete by itself, called at most once
    /// and only after the poll phase came up empty.
    pub fn wait<T>(&mut self, mut probe: impl FnMut() -> Option<T>, park: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        if self.credit > 0 {
            let polled_for = loop {
                if let Some(found) = probe() {
                    self.credit = CREDIT;
                    self.counters.polled.inc();
                    self.counters.poll_ns.add(start.elapsed().as_nanos() as u64);
                    return found;
                }
                let elapsed = start.elapsed();
                if elapsed >= POLL_CAP {
                    break elapsed;
                }
                std::thread::yield_now();
            };
            self.counters.poll_ns.add(polled_for.as_nanos() as u64);
        }
        let found = park();
        self.counters.parked.inc();
        self.credit = if start.elapsed() <= POLL_CAP {
            CREDIT
        } else {
            self.credit.saturating_sub(1)
        };
        found
    }
}

// ---------------------------------------------------------------------------
// block_on
// ---------------------------------------------------------------------------

struct ThreadWaker {
    thread: std::thread::Thread,
    /// Set by `wake`, consumed by the waiting thread: closes the race where
    /// an unpark lands between the poll and the park, and is what a waiter
    /// in its poll phase probes.
    notified: AtomicBool,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// What a thread needs to wait in [`block_on`]: built once per thread,
/// lent to one `block_on` at a time.
struct Parker {
    flag: Arc<ThreadWaker>,
    waker: Waker,
    site: WaitSite,
}

thread_local! {
    /// The calling thread's parker, or `None` while a `block_on` on this
    /// thread holds it (a future that itself calls `block_on` builds a
    /// second one: two waits must not consume each other's wake-ups).
    static PARKER: Cell<Option<Parker>> = const { Cell::new(None) };
}

/// The thread's [`Parker`] on loan; goes back when dropped.
struct LentParker(Option<Parker>);

impl LentParker {
    fn take() -> LentParker {
        let cached = PARKER.try_with(Cell::take).ok().flatten();
        LentParker(Some(cached.unwrap_or_else(|| {
            let flag = Arc::new(ThreadWaker {
                thread: std::thread::current(),
                notified: AtomicBool::new(false),
            });
            Parker {
                waker: Waker::from(Arc::clone(&flag)),
                flag,
                site: WaitSite::new(serve_waits()),
            }
        })))
    }
}

impl Drop for LentParker {
    fn drop(&mut self) {
        let parker = self.0.take();
        let _ = PARKER.try_with(|slot| slot.set(parker));
    }
}

/// Drives a future to completion on the calling thread, waiting between
/// polls (see [`WaitSite`]: briefly polling, then parked). The synchronous
/// bridge for client threads waiting on service tickets.
pub fn block_on<F: Future>(future: F) -> F::Output {
    drive(future, None).expect("a wait without a deadline ends only with the output")
}

/// Like [`block_on`], but gives up after `timeout`, returning `None` with
/// the future dropped. Used for best-effort shutdown paths that must not
/// hang if the executor driving the other side is already gone.
pub fn block_on_timeout<F: Future>(future: F, timeout: Duration) -> Option<F::Output> {
    drive(future, Some(Instant::now() + timeout))
}

fn drive<F: Future>(future: F, deadline: Option<Instant>) -> Option<F::Output> {
    let mut future = std::pin::pin!(future);
    let mut lent = LentParker::take();
    let Parker { flag, waker, site } = lent.0.as_mut().expect("held until drop");
    // A wake-up left over from an earlier future on this thread.
    flag.notified.store(false, Ordering::Relaxed);
    let mut cx = Context::from_waker(waker);
    loop {
        if let Poll::Ready(v) = future.as_mut().poll(&mut cx) {
            return Some(v);
        }
        // Both phases consume `notified` and nothing else: the completer
        // needs the future's own lock (an `OpCell` mutex) to get to the
        // waker, so a waiter must not be polling the future meanwhile.
        let woken = site.wait(
            || flag.notified.swap(false, Ordering::AcqRel).then_some(true),
            || loop {
                // `notified` absorbs wakes that landed before the park
                // (unpark tokens also accumulate; this is belt-and-braces
                // for spurious unparks and tokens consumed elsewhere).
                if flag.notified.swap(false, Ordering::AcqRel) {
                    return true;
                }
                match deadline {
                    None => std::thread::park(),
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return false;
                        }
                        std::thread::park_timeout(deadline - now);
                    }
                }
            },
        );
        if !woken {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn spawned_tasks_run_to_completion() {
        let exec = Executor::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            exec.spawn(async move {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while counter.load(Ordering::SeqCst) < 100 {
            assert!(Instant::now() < deadline, "tasks did not complete");
            std::thread::yield_now();
        }
    }

    #[test]
    fn block_on_returns_future_output() {
        assert_eq!(block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn wakers_resume_pending_tasks() {
        // A future that pends once and is woken from another thread.
        struct YieldOnce {
            yielded: bool,
        }
        impl Future for YieldOnce {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.yielded {
                    Poll::Ready(())
                } else {
                    self.yielded = true;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        let exec = Executor::new(1);
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        exec.spawn(async move {
            YieldOnce { yielded: false }.await;
            flag.store(true, Ordering::SeqCst);
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "self-waking task starved");
            std::thread::yield_now();
        }
    }

    #[test]
    fn sleep_respects_its_deadline() {
        let exec = Executor::new(1);
        let handle = exec.handle();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let t0 = Instant::now();
        exec.spawn(async move {
            handle.sleep(Duration::from_millis(5)).await;
            done_tx.send(t0.elapsed()).unwrap();
        });
        let elapsed = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("sleep never fired");
        assert!(
            elapsed >= Duration::from_millis(5),
            "sleep fired early: {elapsed:?}"
        );
    }

    #[test]
    fn many_sleeps_across_wheel_laps_all_fire() {
        let exec = Executor::with_config(ExecutorConfig {
            workers: 2,
            // Coarse enough that 300 ticks span > one 256-slot lap.
            timer_granularity: Duration::from_micros(50),
            ..ExecutorConfig::default()
        });
        let handle = exec.handle();
        let fired = Arc::new(AtomicU64::new(0));
        let n = 64u64;
        for i in 0..n {
            let handle = handle.clone();
            let fired = Arc::clone(&fired);
            exec.spawn(async move {
                // Deadlines from 0..16ms: some land many laps out.
                handle.sleep(Duration::from_micros(i * 250)).await;
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while fired.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "a timer was lost");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A waker that only counts; lets the wheel be driven tick-by-tick
    /// without threads or clocks.
    struct CountingWake {
        wakes: AtomicU64,
    }
    impl std::task::Wake for CountingWake {
        fn wake(self: Arc<Self>) {
            self.wakes.fetch_add(1, Ordering::SeqCst);
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.wakes.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Regression test for far deadlines: an entry more than `WHEEL_SLOTS`
    /// ticks out shares its slot with an entry one full lap earlier. A
    /// wheel that fires a slot without checking the entry's absolute
    /// `deadline_tick` would wake it a whole rotation early. This drives
    /// `TimerWheel` directly — the `Sleep` future re-checks wall time on
    /// poll and would quietly re-register, hiding the bug from any
    /// end-to-end test.
    #[test]
    fn wheel_entry_beyond_one_lap_does_not_fire_a_rotation_early() {
        let granularity = Duration::from_millis(1);
        let wheel = TimerWheel::new(granularity);
        let far = Arc::new(CountingWake {
            wakes: AtomicU64::new(0),
        });
        // Deadline 2 × WHEEL_SLOTS ticks out: lands in slot
        // (2·WHEEL_SLOTS) % WHEEL_SLOTS = 0, the same slot a deadline at
        // tick 0 of any lap would use.
        let far_ticks = 2 * WHEEL_SLOTS as u32;
        let deadline = wheel.start + granularity * far_ticks;
        assert!(wheel.register(deadline, Waker::from(Arc::clone(&far))));
        // One full lap plus a little: every slot (including the entry's) has
        // been visited once, but the entry's own tick is still a lap away.
        let one_lap = wheel.start + granularity * (WHEEL_SLOTS as u32 + 8);
        wheel.advance(one_lap);
        assert_eq!(
            far.wakes.load(Ordering::SeqCst),
            0,
            "entry {far_ticks} ticks out fired a full rotation early"
        );
        // Advance past the real deadline: now it must fire, exactly once.
        wheel.advance(wheel.start + granularity * (far_ticks + 1));
        assert_eq!(
            far.wakes.load(Ordering::SeqCst),
            1,
            "entry lost or duplicated"
        );
        // Nothing left behind: further laps never re-fire it.
        wheel.advance(wheel.start + granularity * (far_ticks * 3));
        assert_eq!(far.wakes.load(Ordering::SeqCst), 1);
    }

    /// Same property with near and far entries sharing one slot: advancing
    /// to the near entry's tick fires it alone; the cohabitant a lap later
    /// stays put until its own tick.
    #[test]
    fn wheel_slot_cohabitants_fire_on_their_own_laps() {
        let granularity = Duration::from_millis(1);
        let wheel = TimerWheel::new(granularity);
        let near = Arc::new(CountingWake {
            wakes: AtomicU64::new(0),
        });
        let far = Arc::new(CountingWake {
            wakes: AtomicU64::new(0),
        });
        let near_ticks = 16u32;
        let far_ticks = near_ticks + WHEEL_SLOTS as u32; // same slot, next lap
        assert!(wheel.register(
            wheel.start + granularity * near_ticks,
            Waker::from(Arc::clone(&near))
        ));
        assert!(wheel.register(
            wheel.start + granularity * far_ticks,
            Waker::from(Arc::clone(&far))
        ));
        wheel.advance(wheel.start + granularity * (near_ticks + 1));
        assert_eq!(near.wakes.load(Ordering::SeqCst), 1);
        assert_eq!(
            far.wakes.load(Ordering::SeqCst),
            0,
            "far entry fired a lap early"
        );
        wheel.advance(wheel.start + granularity * (far_ticks + 1));
        assert_eq!(far.wakes.load(Ordering::SeqCst), 1);
    }

    /// End-to-end flavour of the far-deadline case: a real sleep of
    /// 2 × WHEEL_SLOTS × granularity must not resolve early even though its
    /// wheel slot is swept once per lap. (Kept coarse-grained enough to be
    /// robust: early firing would undershoot by a whole lap, ~half the
    /// total, far outside scheduling noise.)
    #[test]
    fn sleep_two_full_laps_out_is_not_woken_a_rotation_early() {
        let granularity = Duration::from_micros(50);
        let exec = Executor::with_config(ExecutorConfig {
            workers: 1,
            timer_granularity: granularity,
            ..ExecutorConfig::default()
        });
        let handle = exec.handle();
        let total = granularity * (2 * WHEEL_SLOTS as u32); // ~25.6ms
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let t0 = Instant::now();
        exec.spawn(async move {
            handle.sleep(total).await;
            done_tx.send(t0.elapsed()).unwrap();
        });
        let elapsed = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("far sleep never fired");
        assert!(
            elapsed >= total,
            "sleep of {total:?} resolved after only {elapsed:?}"
        );
    }

    #[test]
    fn dropping_the_executor_stops_cleanly_with_pending_tasks() {
        let exec = Executor::new(2);
        let handle = exec.handle();
        for _ in 0..8 {
            let handle = handle.clone();
            exec.spawn(async move {
                handle.sleep(Duration::from_secs(60)).await;
            });
        }
        // Give workers a moment to pick tasks up, then drop mid-sleep.
        std::thread::sleep(Duration::from_millis(5));
        drop(exec);
    }

    #[test]
    fn chaos_enabled_workers_still_complete_tasks() {
        let exec = Executor::with_config(ExecutorConfig {
            workers: 2,
            chaos: Some((0xC0FFEE, ChaosConfig::aggressive())),
            ..ExecutorConfig::default()
        });
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            exec.spawn(async move {
                // Perform base-object steps so the chaos layer has boundaries
                // to perturb at.
                let cell = psnap_shmem::VersionedCell::new(0u64);
                for i in 0..50 {
                    cell.store(i);
                    let _ = cell.load();
                }
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while counter.load(Ordering::SeqCst) < 16 {
            assert!(Instant::now() < deadline, "chaos worker starved");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    /// Spins until every worker of `exec` is parked (or about to park with
    /// the queues re-checked empty).
    fn wait_until_workers_park(exec: &Executor) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while exec.shared.sleepers.load(Ordering::SeqCst) < exec.workers.len() {
            assert!(Instant::now() < deadline, "workers never parked");
            std::thread::yield_now();
        }
    }

    /// Holds the only worker of `exec` inside a poll until the returned
    /// sender is dropped: whatever runs meanwhile runs on another thread.
    fn pin_the_worker(exec: &Executor) -> std::sync::mpsc::Sender<()> {
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (pinned_tx, pinned_rx) = std::sync::mpsc::channel::<()>();
        exec.spawn(async move {
            pinned_tx.send(()).unwrap();
            let _ = release_rx.recv();
        });
        pinned_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("worker never started the pinning task");
        release_tx
    }

    #[test]
    fn a_task_queued_by_a_helper_runs_on_the_helpers_thread() {
        let exec = Executor::new(1);
        let release = pin_the_worker(&exec);

        let handle = exec.handle();
        let helper = handle.helper();
        let ran_on = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&ran_on);
        handle.spawn(async move {
            *slot.lock().unwrap() = Some(std::thread::current().id());
        });
        assert_eq!(helper.help(|| false), 1);
        assert_eq!(
            *ran_on.lock().unwrap(),
            Some(std::thread::current().id()),
            "the helper did not poll the task it queued"
        );
        // `done` is checked before a task is taken.
        handle.spawn(async {});
        assert_eq!(helper.help(|| true), 0);
        drop(helper);
        drop(release);
    }

    #[test]
    fn a_helper_stuck_in_its_first_task_does_not_strand_the_second() {
        let exec = Executor::new(1);
        wait_until_workers_park(&exec);
        let handle = exec.handle();
        let helper = handle.helper();
        // Both pushes are quiet: the parked worker hears of neither.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (second_tx, second_rx) = std::sync::mpsc::channel();
        handle.spawn(async move {
            // Blocks the helper's thread until the second task has run —
            // which only another thread can do.
            second_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("second task stranded behind the stuck helper");
            release_tx.send(()).unwrap();
        });
        handle.spawn(async move {
            second_tx.send(std::thread::current().id()).unwrap();
        });
        // Taking the first task with the second still queued wakes the
        // worker (PARK_TIMEOUT is an hour here: nothing else would).
        assert_eq!(helper.help(|| false), 1);
        release_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("first task never finished");
    }

    #[test]
    fn tasks_spawned_inside_a_helped_poll_start_on_a_worker_meanwhile() {
        let exec = Executor::new(1);
        wait_until_workers_park(&exec);
        let handle = exec.handle();
        let helper = handle.helper();
        let helper_thread = std::thread::current().id();
        let inner = handle.clone();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        handle.spawn(async move {
            let (child_tx, child_rx) = std::sync::mpsc::channel();
            // A union job fanned out from the scan server: it must not wait
            // for this poll to end.
            inner.spawn(async move {
                child_tx.send(std::thread::current().id()).unwrap();
            });
            let child_thread = child_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("child task did not start while its parent was still being polled");
            done_tx.send(child_thread).unwrap();
        });
        assert_eq!(helper.help(|| false), 1);
        let child_thread = done_rx.try_recv().expect("parent task did not complete");
        assert_ne!(child_thread, helper_thread);
    }

    #[test]
    fn dropping_a_helper_hands_its_queued_tasks_to_a_worker() {
        let exec = Executor::new(1);
        wait_until_workers_park(&exec);
        let handle = exec.handle();
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = handle.helper();
        handle.spawn(async move {
            tx.send(()).unwrap();
        });
        drop(helper); // never helped
        rx.recv_timeout(Duration::from_secs(10))
            .expect("task queued by a dropped helper was stranded");
    }

    #[test]
    fn a_helper_polls_under_the_executors_chaos_config() {
        let exec = Executor::with_config(ExecutorConfig {
            workers: 1,
            chaos: Some((7, ChaosConfig::light())),
            ..ExecutorConfig::default()
        });
        // So that the probe can only run on this thread.
        let release = pin_the_worker(&exec);
        assert!(!chaos::is_enabled());
        let handle = exec.handle();
        let helper = handle.helper();
        let seen = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&seen);
        handle.spawn(async move {
            flag.store(chaos::is_enabled(), Ordering::SeqCst);
        });
        assert_eq!(helper.help(|| false), 1);
        assert!(seen.load(Ordering::SeqCst), "helped poll ran without chaos");
        drop(helper);
        assert!(!chaos::is_enabled(), "chaos outlived the registration");
        drop(release);
    }

    // --- WaitSite and its two sites in this crate --------------------------

    #[test]
    fn a_wake_during_the_poll_phase_costs_no_park() {
        let mut site = WaitSite::new(serve_waits());
        let mut probes = 0;
        let found = site.wait(
            || {
                probes += 1;
                (probes == 3).then_some("polled")
            },
            || panic!("parked although the probe found it"),
        );
        assert_eq!((found, probes), ("polled", 3));
        assert_eq!(site.credit, CREDIT);
    }

    #[test]
    fn a_wake_after_the_poll_phase_costs_exactly_one_park() {
        let mut site = WaitSite::new(serve_waits());
        let (mut probes, mut parks) = (0, 0);
        let t0 = Instant::now();
        let found = site.wait(
            || {
                probes += 1;
                None
            },
            || {
                parks += 1;
                "parked"
            },
        );
        assert_eq!((found, parks), ("parked", 1));
        assert!(probes >= 1 && t0.elapsed() >= POLL_CAP);
        assert_eq!(site.credit, CREDIT - 1, "a long wait spends one credit");
    }

    #[test]
    fn credit_decays_to_zero_stops_all_probing_and_one_short_wait_rearms_it() {
        let mut site = WaitSite::new(serve_waits());
        for spent in 1..=CREDIT {
            site.wait(|| None, || ());
            assert_eq!(site.credit, CREDIT - spent);
        }
        // Out of credit: no probe at all, however long the parks take.
        let mut probes = 0;
        for _ in 0..5 {
            site.wait(
                || {
                    probes += 1;
                    None
                },
                || std::thread::sleep(POLL_CAP * 2),
            );
            assert_eq!((site.credit, probes), (0, 0));
        }
        // One wait that a park ends quickly: the site polls again.
        site.wait(|| -> Option<()> { panic!("probed without credit") }, || ());
        assert_eq!(site.credit, CREDIT);
        site.wait(
            || {
                probes += 1;
                Some(())
            },
            || panic!("parked although the probe found it"),
        );
        assert_eq!(probes, 1);
    }

    #[test]
    fn block_on_is_ready_at_once_and_reuses_the_threads_parker() {
        assert_eq!(block_on(async { 1 }), 1);
        let first = PARKER.with(|slot| {
            let parker = slot.take().expect("block_on left its parker behind");
            let id = Arc::as_ptr(&parker.flag);
            slot.set(Some(parker));
            id
        });
        assert_eq!(block_on(async { 2 }), 2);
        let second = PARKER.with(|slot| slot.take().map(|p| Arc::as_ptr(&p.flag)));
        assert_eq!(second, Some(first), "a second wait built a second waker");
    }

    #[test]
    fn a_nested_block_on_does_not_eat_the_outer_wake_up() {
        use crate::queue::{OpCell, Ticket};
        // So that the thread has a parker to share, if sharing is the bug.
        block_on(async {});
        let (outer, inner) = (OpCell::new(), OpCell::new());
        let (go, gone) = std::sync::mpsc::channel::<()>();
        let inner_tx = Arc::clone(&inner);
        let completer = std::thread::spawn(move || {
            gone.recv().unwrap();
            inner_tx.complete(2u64);
        });
        let outer_tx = Arc::clone(&outer);
        let mut outer = Ticket::new(outer);
        let mut nested = Some(Ticket::new(inner));
        let sum = block_on(std::future::poll_fn(move |cx| {
            // Pending, with this thread's waker registered …
            let first = Pin::new(&mut outer).poll(cx);
            // … which fires before a wait nested in the same poll begins.
            let second = nested.take().map_or(0, |inner| {
                outer_tx.complete(1u64);
                go.send(()).unwrap();
                block_on(inner)
            });
            first.map(|v| v + second)
        }));
        // The re-poll the outer wake-up caused; had the nested wait shared
        // the outer one's flag, it would have consumed it and this hangs.
        assert_eq!(sum, 1);
        completer.join().unwrap();
    }

    #[test]
    fn block_on_timeout_returns_within_its_deadline_plus_the_poll_cap() {
        for timeout in [Duration::ZERO, POLL_CAP / 2, Duration::from_millis(3)] {
            // Twice per timeout: with credit and (after enough long waits)
            // without, the bound is the same.
            for _ in 0..=CREDIT {
                let t0 = Instant::now();
                assert_eq!(
                    block_on_timeout(std::future::pending::<()>(), timeout),
                    None
                );
                let took = t0.elapsed();
                assert!(took >= timeout, "gave up early: {took:?} < {timeout:?}");
                // Generous against a descheduled test thread, far below the
                // next thing it could be confused with (a 1 h park).
                assert!(
                    took <= timeout + POLL_CAP + Duration::from_millis(250),
                    "{took:?} for a {timeout:?} timeout"
                );
            }
        }
    }

    /// 100 000 round trips between this thread (`block_on`) and a task on a
    /// one-worker executor. Every fourth request is held back for 44–60 µs,
    /// in 0.1 µs steps: it lands while the worker, its poll phase spent, is
    /// between its last look at the queues and its park — the window the
    /// locked re-check closes. `PARK_TIMEOUT` is an hour here, so a wake-up
    /// lost by either site hangs the test instead of costing 20 ms.
    #[test]
    fn a_hundred_thousand_round_ping_pong_finishes() {
        use crate::queue::{Notify, OpCell, Ticket};
        let exec = Executor::new(1);
        type Inbox = Mutex<VecDeque<(u64, Arc<OpCell<u64>>)>>;
        let inbox: Arc<Inbox> = Arc::default();
        let bell = Arc::new(Notify::new());
        let (task_inbox, task_bell) = (Arc::clone(&inbox), Arc::clone(&bell));
        exec.spawn(async move {
            loop {
                task_bell.wait().await;
                let mut batch = std::mem::take(&mut *task_inbox.lock().unwrap());
                for (round, cell) in batch.drain(..) {
                    cell.complete(round + 1);
                }
            }
        });
        for round in 0..100_000u64 {
            if round % 4 == 0 {
                let pause = Duration::from_nanos(44_000 + round / 4 % 160 * 100);
                let t0 = Instant::now();
                while t0.elapsed() < pause {
                    std::hint::spin_loop();
                }
            }
            let cell = OpCell::new();
            inbox.lock().unwrap().push_back((round, Arc::clone(&cell)));
            bell.notify();
            assert_eq!(Ticket::new(cell).wait(), round + 1);
        }
    }
}
