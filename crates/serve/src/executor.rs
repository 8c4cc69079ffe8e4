//! Timed jobs on a small thread pool, and the waiting primitive every
//! ticket wait goes through.
//!
//! The service's pipelines run on the threads that wait for them (see
//! [`Ticket`](crate::Ticket)); what is left is work due at a time — stats
//! reporters, the reshard driver, the flight auditor, a wire server's idle
//! watchdogs. So an [`Executor`] is a timer: worker threads over **one
//! deadline heap** of jobs, each run when due and returning when to run
//! next (`None`: done). A worker with nothing due waits on one condvar
//! until the earliest deadline, without a timeout while the heap is empty:
//! an executor with nothing scheduled costs no wake-ups.
//!
//! [`block_on`] lets synchronous client threads await tickets, through
//! [`WaitSite`]: poll briefly, then park.

use std::cell::Cell;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::future::Future;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use psnap_obs::{Counter, Registry};
use psnap_shmem::chaos::{self, ChaosConfig};

/// Configuration of an [`Executor`].
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    /// Number of worker threads. Clamped to ≥ 1.
    pub workers: usize,
    /// If set, every worker thread enables the chaos layer with
    /// `(seed + worker index, config)` for its whole life, and so does every
    /// thread that calls [`Handle::enter_chaos`] (seeds continue past the
    /// workers'). The service pipelines run on the threads that wait on
    /// their tickets, so this perturbs them only where such a thread has
    /// entered the chaos: a wire server's connection and reply-pump threads
    /// do, in-process clients enable chaos on their own threads.
    pub chaos: Option<(u64, ChaosConfig)>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 2,
            chaos: None,
        }
    }
}

/// A scheduled job: runs when due, returns when to run next (`None`: done).
type Job = Box<dyn FnMut() -> Option<Instant> + Send>;

/// One heap entry, ordered so that the earliest deadline is the heap's
/// top; `seq` breaks ties in scheduling order.
struct Due {
    at: Instant,
    seq: u64,
    job: Job,
}

impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Due {}

impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for Due {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: `BinaryHeap` is a max-heap.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Default)]
struct Timers {
    heap: BinaryHeap<Due>,
    next_seq: u64,
    shutdown: bool,
}

impl Timers {
    fn push(&mut self, at: Instant, job: Job) {
        self.next_seq += 1;
        let seq = self.next_seq;
        self.heap.push(Due { at, seq, job });
    }
}

struct Shared {
    timers: Mutex<Timers>,
    /// Rung by a new job, by a worker that leaves jobs behind, at shutdown.
    due: Condvar,
    workers: usize,
    chaos: Option<(u64, ChaosConfig)>,
    /// Threads that entered the chaos through [`Handle::enter_chaos`] so
    /// far; offsets each one's seed past the workers'.
    chaos_entries: AtomicUsize,
}

impl Shared {
    fn timers(&self) -> MutexGuard<'_, Timers> {
        self.timers.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A worker: runs the heap's top once it is due, waits for it otherwise.
///
/// A new job notifies one waiter, and a worker that takes the top while
/// jobs remain notifies one more to look at the next: a due job never
/// waits for a worker busy running another while a second one idles.
fn worker_loop(shared: Arc<Shared>, index: usize) {
    let _chaos_guard = shared
        .chaos
        .clone()
        .map(|(seed, cfg)| chaos::enable(seed.wrapping_add(index as u64), cfg));
    let mut timers = shared.timers();
    while !timers.shutdown {
        let now = Instant::now();
        match timers.heap.peek().map(|top| top.at) {
            None => timers = shared.due.wait(timers).unwrap_or_else(|e| e.into_inner()),
            Some(at) if at > now => {
                timers = (shared.due.wait_timeout(timers, at - now))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
            Some(_) => {
                let mut job = timers.heap.pop().expect("peeked").job;
                if !timers.heap.is_empty() {
                    shared.due.notify_one();
                }
                drop(timers);
                let next = job();
                timers = shared.timers();
                // After shutdown, back only to be dropped with the rest.
                if let Some(at) = next {
                    timers.push(at, job);
                }
            }
        }
    }
}

/// A cheap, cloneable handle for scheduling jobs on an [`Executor`].
/// Handles hold only a weak reference: once the executor is dropped,
/// `schedule` drops its job unrun.
#[derive(Clone)]
pub struct Handle {
    shared: Weak<Shared>,
}

impl Handle {
    /// Runs `job` on a worker once `at` has passed, then again at every
    /// instant it returns, until it returns `None` or the executor is
    /// dropped. A job runs on one worker at a time and blocks that worker
    /// while it runs.
    pub fn schedule<F>(&self, at: Instant, job: F)
    where
        F: FnMut() -> Option<Instant> + Send + 'static,
    {
        let Some(shared) = self.shared.upgrade() else {
            return;
        };
        shared.timers().push(at, Box::new(job));
        shared.due.notify_one();
    }

    /// Runs the calling thread under [`ExecutorConfig::chaos`], if that is
    /// set, until the guard drops: for a thread outside the pool that runs
    /// the service's pipelines. Seeds continue past the workers'; a thread
    /// that already runs under its own chaos keeps it.
    pub fn enter_chaos(&self) -> Option<chaos::ChaosGuard> {
        let shared = self.shared.upgrade()?;
        let (seed, cfg) = shared.chaos.clone().filter(|_| !chaos::is_enabled())?;
        let n = shared.workers + shared.chaos_entries.fetch_add(1, Ordering::Relaxed);
        Some(chaos::enable(seed.wrapping_add(n as u64), cfg))
    }
}

/// Worker threads over one deadline heap of jobs. Dropping it waits for
/// the jobs that are running and drops the ones that are not.
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// An executor with `workers` worker threads.
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
            timers: Mutex::default(),
            due: Condvar::new(),
            workers,
            chaos: config.chaos,
            chaos_entries: AtomicUsize::new(0),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("psnap-serve-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawning executor worker")
            })
            .collect();
        Executor { shared, workers }
    }

    /// A cloneable scheduling handle.
    pub fn handle(&self) -> Handle {
        Handle {
            shared: Arc::downgrade(&self.shared),
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.timers().shutdown = true;
        self.shared.due.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Outside the lock: a job's captures may take locks of their own.
        let pending = std::mem::take(&mut self.shared.timers().heap);
        drop(pending);
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

/// `serve.wait.*`: [`block_on`] callers.
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
    let mut future = std::pin::pin!(future);
    let mut lent = LentParker::take();
    let Parker { flag, waker, site } = lent.0.as_mut().expect("held until drop");
    // A wake-up left over from an earlier future on this thread.
    flag.notified.store(false, Ordering::Relaxed);
    let mut cx = Context::from_waker(waker);
    loop {
        if let Poll::Ready(v) = future.as_mut().poll(&mut cx) {
            return v;
        }
        // Both phases consume `notified` and nothing else: the completer
        // needs the future's own lock (an `OpCell` mutex) to get to the
        // waker, so a waiter must not be polling the future meanwhile.
        site.wait(
            || flag.notified.swap(false, Ordering::AcqRel).then_some(()),
            || {
                // `notified` absorbs wakes that landed before the park
                // (unpark tokens also accumulate; this is belt-and-braces
                // for spurious unparks and tokens consumed elsewhere).
                while !flag.notified.swap(false, Ordering::AcqRel) {
                    std::thread::park();
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    /// Schedules `job` to run once, at `at`.
    fn run_once(handle: &Handle, at: Instant, job: impl FnOnce() + Send + 'static) {
        let mut job = Some(job);
        handle.schedule(at, move || {
            (job.take()?)();
            None
        });
    }

    /// Waits (30 s at most) for `count` to reach `n`.
    fn reaches(count: &AtomicU64, n: u64, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while count.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn spawned_tasks_run_to_completion() {
        let exec = Executor::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            run_once(&exec.handle(), Instant::now(), move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        reaches(&counter, 100, "jobs did not complete");
    }

    #[test]
    fn block_on_returns_future_output() {
        assert_eq!(block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn a_job_never_runs_before_its_deadline() {
        let exec = Executor::new(1);
        let (ran_tx, ran_rx) = mpsc::channel();
        for delay in [5, 25].map(Duration::from_millis) {
            let due = Instant::now() + delay;
            let ran_tx = ran_tx.clone();
            exec.handle().schedule(due, move || {
                ran_tx.send((Instant::now(), due)).unwrap();
                None
            });
        }
        for _ in 0..2 {
            let (ran, due) = ran_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a job never ran");
            assert!(ran >= due, "ran {:?} early", due - ran);
        }
    }

    #[test]
    fn a_job_that_returns_some_runs_again() {
        let exec = Executor::new(1);
        let runs = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&runs);
        exec.handle().schedule(Instant::now(), move || {
            let run = counted.fetch_add(1, Ordering::SeqCst) + 1;
            (run < 3).then(|| Instant::now() + Duration::from_millis(1))
        });
        reaches(&runs, 3, "a rescheduled job was lost");
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(runs.load(Ordering::SeqCst), 3, "ran on after `None`");
    }

    #[test]
    fn sixty_four_jobs_over_sixteen_ms_all_run() {
        let exec = Executor::new(2);
        let ran = Arc::new(AtomicU64::new(0));
        let n = 64u64;
        let t0 = Instant::now();
        for i in 0..n {
            let (ran, at) = (Arc::clone(&ran), t0 + Duration::from_micros(i * 250));
            run_once(&exec.handle(), at, move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        reaches(&ran, n, "a job was lost");
    }

    #[test]
    fn dropping_the_executor_stops_cleanly_with_pending_tasks() {
        let exec = Executor::new(2);
        let captured = Arc::new(());
        for _ in 0..8 {
            let captured = Arc::clone(&captured);
            exec.handle()
                .schedule(Instant::now() + Duration::from_secs(60), move || {
                    let _ = &captured;
                    None
                });
        }
        // Give workers a moment to start waiting, then drop mid-wait.
        std::thread::sleep(Duration::from_millis(5));
        let t0 = Instant::now();
        drop(exec);
        assert!(t0.elapsed() < Duration::from_secs(5), "drop waited");
        assert_eq!(Arc::strong_count(&captured), 1, "a pending job was kept");
    }

    #[test]
    fn chaos_enabled_workers_still_complete_tasks() {
        let exec = Executor::with_config(ExecutorConfig {
            workers: 2,
            chaos: Some((0xC0FFEE, ChaosConfig::aggressive())),
        });
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            run_once(&exec.handle(), Instant::now(), move || {
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
        reaches(&counter, 16, "chaos worker starved");
    }

    #[test]
    fn a_job_scheduled_inside_a_job_runs_on_another_worker_meanwhile() {
        let exec = Executor::new(2);
        let inner = exec.handle();
        let (done_tx, done_rx) = mpsc::channel();
        run_once(&exec.handle(), Instant::now(), move || {
            let parent_thread = std::thread::current().id();
            let (child_tx, child_rx) = mpsc::channel();
            run_once(&inner, Instant::now(), move || {
                child_tx.send(std::thread::current().id()).unwrap();
            });
            let child_thread = child_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the child job did not run while its parent was running");
            done_tx.send((parent_thread, child_thread)).unwrap();
        });
        let (parent, child) = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the parent job did not complete");
        assert_ne!(parent, child);
    }

    #[test]
    fn enter_chaos_runs_the_thread_under_the_executors_chaos_config() {
        let exec = Executor::with_config(ExecutorConfig {
            workers: 1,
            chaos: Some((7, ChaosConfig::light())),
        });
        assert!(!chaos::is_enabled());
        let guard = exec.handle().enter_chaos();
        assert!(guard.is_some() && chaos::is_enabled());
        // A thread already under chaos keeps its own.
        assert!(exec.handle().enter_chaos().is_none());
        drop(guard);
        assert!(!chaos::is_enabled(), "chaos outlived the guard");
        // Without a chaos config there is nothing to enter.
        assert!(Executor::new(1).handle().enter_chaos().is_none());
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
            let first = std::pin::Pin::new(&mut outer).poll(cx);
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

    /// 100 000 round trips between this thread and a responder thread, both
    /// waiting through `block_on`. Every fourth request is held back for
    /// 44–60 µs, in 0.1 µs steps: it lands while the responder, its poll
    /// phase spent, is between its last look at its doorbell and its park —
    /// the window `notified` closes. There is no park timeout, so a wake-up
    /// lost by either side hangs the test.
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
