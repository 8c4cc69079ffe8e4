//! [`WaitSite`], the waiting primitive of every hot-path wait (a ticket's,
//! a wire socket read's): poll briefly, then park.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use psnap_obs::{Counter, Registry};

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

/// `serve.wait.*`: [`Ticket::wait`](crate::Ticket::wait) callers.
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
    pub(crate) credit: u8,
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
    pub fn wait<T>(&mut self, probe: impl FnMut() -> Option<T>, park: impl FnOnce() -> T) -> T {
        self.wait_with_clock(Instant::now, probe, park)
    }

    /// [`wait`](WaitSite::wait) with the time read from `now`, so a test
    /// can say how long each probe and park took.
    pub(crate) fn wait_with_clock<T>(
        &mut self,
        mut now: impl FnMut() -> Instant,
        mut probe: impl FnMut() -> Option<T>,
        park: impl FnOnce() -> T,
    ) -> T {
        let start = now();
        if self.credit > 0 {
            let polled_for = loop {
                if let Some(found) = probe() {
                    self.credit = CREDIT;
                    self.counters.polled.inc();
                    self.counters.poll_ns.add((now() - start).as_nanos() as u64);
                    return found;
                }
                let elapsed = now() - start;
                if elapsed >= POLL_CAP {
                    break elapsed;
                }
                std::thread::yield_now();
            };
            self.counters.poll_ns.add(polled_for.as_nanos() as u64);
        }
        let found = park();
        self.counters.parked.inc();
        self.credit = if now() - start <= POLL_CAP {
            CREDIT
        } else {
            self.credit.saturating_sub(1)
        };
        found
    }
}

thread_local! {
    /// The calling thread's site for [`Ticket::wait`](crate::Ticket::wait):
    /// its credit carries from one wait to the next; a wait borrows it only
    /// to probe and park, which wait on no other ticket.
    pub(crate) static SERVE_SITE: RefCell<WaitSite> = RefCell::new(WaitSite::new(serve_waits()));
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    /// A clock that moves only when told to: probes and parks say how long
    /// they took, so no assertion depends on how the scheduler treats the
    /// test thread.
    struct TestClock {
        start: Instant,
        elapsed: Cell<Duration>,
    }

    impl TestClock {
        fn new() -> TestClock {
            TestClock {
                start: Instant::now(),
                elapsed: Cell::new(Duration::ZERO),
            }
        }

        fn now(&self) -> Instant {
            self.start + self.elapsed.get()
        }

        fn advance(&self, by: Duration) {
            self.elapsed.set(self.elapsed.get() + by);
        }
    }

    #[test]
    fn a_wake_during_the_poll_phase_costs_no_park() {
        let clock = TestClock::new();
        let mut site = WaitSite::new(serve_waits());
        let mut probes = 0;
        let found = site.wait_with_clock(
            || clock.now(),
            || {
                probes += 1;
                // Each probe takes a tenth of the cap: the third is well
                // inside the poll phase.
                clock.advance(POLL_CAP / 10);
                (probes == 3).then_some("polled")
            },
            || panic!("parked although the probe found it"),
        );
        assert_eq!((found, probes), ("polled", 3));
        assert_eq!(site.credit, CREDIT);
    }

    #[test]
    fn a_wake_after_the_poll_phase_costs_exactly_one_park() {
        let clock = TestClock::new();
        let mut site = WaitSite::new(serve_waits());
        let (mut probes, mut parks) = (0, 0);
        let found = site.wait_with_clock(
            || clock.now(),
            || {
                probes += 1;
                clock.advance(POLL_CAP / 4);
                None
            },
            || {
                parks += 1;
                clock.advance(POLL_CAP);
                "parked"
            },
        );
        assert_eq!((found, parks, probes), ("parked", 1, 4));
        assert_eq!(site.credit, CREDIT - 1, "a long wait spends one credit");
    }

    #[test]
    fn credit_decays_to_zero_stops_all_probing_and_one_short_wait_rearms_it() {
        let clock = TestClock::new();
        let mut site = WaitSite::new(serve_waits());
        let long_park = || clock.advance(POLL_CAP * 2);
        let empty_probe = || -> Option<()> {
            clock.advance(POLL_CAP / 4);
            None
        };
        for spent in 1..=CREDIT {
            site.wait_with_clock(|| clock.now(), empty_probe, long_park);
            assert_eq!(site.credit, CREDIT - spent);
        }
        // Out of credit: no probe at all, however long the parks take.
        let mut probes = 0;
        for _ in 0..5 {
            site.wait_with_clock(
                || clock.now(),
                || {
                    probes += 1;
                    None
                },
                long_park,
            );
            assert_eq!((site.credit, probes), (0, 0));
        }
        // One wait that a park ends quickly: the site polls again.
        site.wait_with_clock(
            || clock.now(),
            || -> Option<()> { panic!("probed without credit") },
            || clock.advance(POLL_CAP / 2),
        );
        assert_eq!(site.credit, CREDIT);
        site.wait_with_clock(
            || clock.now(),
            || {
                probes += 1;
                Some(())
            },
            || panic!("parked although the probe found it"),
        );
        assert_eq!(probes, 1);
    }
}
