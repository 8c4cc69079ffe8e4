//! Timed jobs on a small thread pool.
//!
//! The service's pipelines run on the threads that wait for them (see
//! [`Ticket`](crate::Ticket)); what is left is work due at a time — stats
//! reporters, the reshard driver, the flight auditor, a wire server's idle
//! watchdogs. So an [`Executor`] is a timer: worker threads over **one
//! deadline heap** of jobs, each run when due and returning when to run
//! next (`None`: done). A worker with nothing due waits on one condvar
//! until the earliest deadline, without a timeout while the heap is empty:
//! an executor with nothing scheduled costs no wake-ups.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Instant;

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::time::Duration;

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
}
