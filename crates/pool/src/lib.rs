//! A deterministic in-order worker pool.
//!
//! The generation session runs each round of speculative per-fault builds
//! on a persistent pool of workers. A round's jobs wait in one FIFO queue
//! and every worker claims the next job in sequence order, so the builds
//! the commit thread needs first start first. Finished results flow back
//! through a **sequence-number reorder buffer**: the caller receives them
//! strictly in submission order, one at a time, on its own thread.
//! Because every job is a pure function of its input and the merge order
//! is the submission order, the merged outcome is byte-identical for any
//! thread count — the schedule can only change *when* a result is
//! computed, never *where* it lands.
//!
//! The pool is deliberately minimal: plain `std` threads, one mutex, two
//! condvars, no unsafe, no lock-free cleverness. Rounds are small (a
//! generation batch), so the coordination cost is irrelevant next to the
//! justification work each job performs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// What the caller's in-order result callback tells the round driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep delivering results.
    Continue,
    /// Abandon the round: unstarted jobs are dropped, in-flight jobs are
    /// drained and their results discarded, no further callback runs.
    Stop,
}

/// Runs `driver` with a round runner backed by a persistent pool of
/// `threads` workers executing `worker` (or inline on the caller's thread
/// for `threads <= 1`, with no pool thread spawned at all). Workers live
/// for the whole `driver` call and serve every round it submits.
///
/// A panic inside `worker` is rethrown on the caller's thread from the
/// corresponding [`RoundRunner::run_round`] call, at the panicked job's
/// position in the sequence order.
pub fn with_pool<T, R, W, F, O>(threads: usize, worker: W, driver: F) -> O
where
    T: Send,
    R: Send,
    W: Fn(T) -> R + Sync,
    F: FnOnce(&mut RoundRunner<'_, T, R>) -> O,
{
    if threads <= 1 {
        let mut runner = RoundRunner {
            inner: Inner::Inline(&worker),
        };
        return driver(&mut runner);
    }
    let shared = Shared::new();
    std::thread::scope(|scope| {
        let shared = &shared;
        let worker = &worker;
        for _ in 0..threads {
            scope.spawn(move || shared.worker_loop(worker));
        }
        // The workers only exit on shutdown; raise it however the driver
        // leaves (return or panic), or the scope would join forever.
        struct ShutdownOnDrop<'s, T, R>(&'s Shared<T, R>);
        impl<T, R> Drop for ShutdownOnDrop<'_, T, R> {
            fn drop(&mut self) {
                self.0.shutdown();
            }
        }
        let _shutdown = ShutdownOnDrop(shared);
        let mut runner = RoundRunner {
            inner: Inner::Pooled(shared),
        };
        driver(&mut runner)
    })
}

/// Submits rounds of jobs and receives results in submission order.
pub struct RoundRunner<'a, T, R> {
    inner: Inner<'a, T, R>,
}

enum Inner<'a, T, R> {
    Inline(&'a (dyn Fn(T) -> R + Sync)),
    Pooled(&'a Shared<T, R>),
}

impl<T: Send, R: Send> RoundRunner<'_, T, R> {
    /// Runs one round: workers claim the jobs in `items` in item order,
    /// and `on_result(seq, result)` is called on this thread strictly in
    /// item order — result 0 first, then 1, and so on. Returns whether
    /// the round was stopped early: after a [`Control::Stop`], remaining
    /// jobs are dropped or drained unobserved and the callback is not
    /// called again.
    ///
    /// The inline and pooled paths are observationally identical for
    /// pure jobs: the same prefix of results reaches the callback in the
    /// same order.
    pub fn run_round(
        &mut self,
        items: Vec<T>,
        mut on_result: impl FnMut(usize, R) -> Control,
    ) -> bool {
        match &self.inner {
            Inner::Inline(worker) => {
                for (seq, item) in items.into_iter().enumerate() {
                    if matches!(on_result(seq, worker(item)), Control::Stop) {
                        return true;
                    }
                }
                false
            }
            Inner::Pooled(shared) => shared.run_round(items, &mut on_result),
        }
    }
}

/// One job's result as stored in the reorder buffer: the worker catches
/// panics so a poisoned job cannot deadlock the commit thread.
type JobResult<R> = std::thread::Result<R>;

struct RoundState<T, R> {
    shutdown: bool,
    /// The round's unclaimed jobs in sequence order; a job is
    /// `(sequence number, payload)`.
    queue: VecDeque<(usize, T)>,
    /// Jobs claimed but not yet delivered.
    in_flight: usize,
    /// The reorder buffer, indexed by sequence number.
    results: Vec<Option<JobResult<R>>>,
}

struct Shared<T, R> {
    state: Mutex<RoundState<T, R>>,
    /// Signalled when a round is queued or shutdown is raised.
    work_cv: Condvar,
    /// Signalled when a result lands in the reorder buffer.
    done_cv: Condvar,
}

impl<T, R> Shared<T, R> {
    fn new() -> Shared<T, R> {
        Shared {
            state: Mutex::new(RoundState {
                shutdown: false,
                queue: VecDeque::new(),
                in_flight: 0,
                results: Vec::new(),
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RoundState<T, R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work_cv.notify_all();
    }
}

impl<T: Send, R: Send> Shared<T, R> {
    fn worker_loop<W: Fn(T) -> R + Sync>(&self, worker: &W) {
        loop {
            let (seq, item) = {
                let mut st = self.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if let Some(job) = st.queue.pop_front() {
                        st.in_flight += 1;
                        break job;
                    }
                    st = self
                        .work_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let result = catch_unwind(AssertUnwindSafe(|| worker(item)));
            let mut st = self.lock();
            st.results[seq] = Some(result);
            st.in_flight -= 1;
            drop(st);
            self.done_cv.notify_all();
        }
    }

    fn run_round(&self, items: Vec<T>, on_result: &mut dyn FnMut(usize, R) -> Control) -> bool {
        let n = items.len();
        if n == 0 {
            return false;
        }
        {
            let mut st = self.lock();
            debug_assert_eq!(st.in_flight, 0, "previous round must be drained");
            st.results = (0..n).map(|_| None).collect();
            st.queue.extend(items.into_iter().enumerate());
        }
        self.work_cv.notify_all();

        let mut stopped = false;
        for seq in 0..n {
            let result = {
                let mut st = self.lock();
                loop {
                    if let Some(result) = st.results[seq].take() {
                        break result;
                    }
                    st = self
                        .done_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            match result {
                Err(payload) => {
                    self.abandon_and_drain();
                    resume_unwind(payload);
                }
                Ok(result) => {
                    if matches!(on_result(seq, result), Control::Stop) {
                        stopped = true;
                        break;
                    }
                }
            }
        }
        if stopped {
            self.abandon_and_drain();
        }
        stopped
    }

    /// Drops every unstarted job and waits until no job is in flight,
    /// discarding any late results. Leaves the pool ready for the next
    /// round.
    fn abandon_and_drain(&self) {
        let mut st = self.lock();
        st.queue.clear();
        while st.in_flight > 0 {
            st = self
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.results.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    fn collect_round(threads: usize, items: Vec<u64>) -> Vec<(usize, u64)> {
        with_pool(
            threads,
            |x: u64| x * 10,
            |pool| {
                let mut seen = Vec::new();
                let stopped = pool.run_round(items, |seq, r| {
                    seen.push((seq, r));
                    Control::Continue
                });
                assert!(!stopped);
                seen
            },
        )
    }

    #[test]
    fn results_arrive_in_sequence_order_for_every_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x * 10)).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                collect_round(threads, items.clone()),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn workers_claim_jobs_in_sequence_order() {
        // Jobs 0–3 record their start and then meet at a barrier, so no
        // job finishes before four have started: the four workers must
        // start on jobs 0–3, not on the head of a chunk each (0, 2, 4, 6).
        // Earlier jobs then sleep longer and finish last, yet the results
        // must still arrive in order.
        let started = Mutex::new(Vec::new());
        let barrier = Barrier::new(4);
        let seen = with_pool(
            4,
            |x: u64| {
                started.lock().unwrap().push(x);
                if x < 4 {
                    barrier.wait();
                }
                std::thread::sleep(Duration::from_millis(5 * (8 - x)));
                x
            },
            |pool| {
                let mut seen = Vec::new();
                pool.run_round((0..8).collect(), |seq, r| {
                    seen.push((seq, r));
                    Control::Continue
                });
                seen
            },
        );
        let expected: Vec<(usize, u64)> = (0..8).map(|x| (x as usize, x)).collect();
        assert_eq!(seen, expected);
        let mut first = started.into_inner().unwrap()[..4].to_vec();
        first.sort_unstable();
        assert_eq!(first, [0, 1, 2, 3]);
    }

    #[test]
    fn the_pool_is_persistent_across_rounds() {
        for threads in [1, 4] {
            let sums = with_pool(
                threads,
                |x: u64| x + 1,
                |pool| {
                    let mut sums = Vec::new();
                    for round in 0..5u64 {
                        let items: Vec<u64> = (round * 10..round * 10 + 7).collect();
                        let mut sum = 0;
                        pool.run_round(items, |_, r| {
                            sum += r;
                            Control::Continue
                        });
                        sums.push(sum);
                    }
                    sums
                },
            );
            let expected: Vec<u64> = (0..5u64)
                .map(|round| (round * 10..round * 10 + 7).map(|x| x + 1).sum())
                .collect();
            assert_eq!(sums, expected, "threads={threads}");
        }
    }

    #[test]
    fn stop_abandons_the_rest_of_the_round() {
        for threads in [1, 2, 4] {
            let seen = with_pool(
                threads,
                |x: u64| x,
                |pool| {
                    let mut seen = Vec::new();
                    let stopped = pool.run_round((0..100).collect(), |seq, r| {
                        seen.push((seq, r));
                        if seq == 2 {
                            Control::Stop
                        } else {
                            Control::Continue
                        }
                    });
                    assert!(stopped);
                    // The pool must still be usable after a stop.
                    let resumed = pool.run_round(vec![7u64], |_, r| {
                        seen.push((99, r));
                        Control::Continue
                    });
                    assert!(!resumed);
                    seen
                },
            );
            assert_eq!(
                seen,
                vec![(0, 0), (1, 1), (2, 2), (99, 7)],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_rounds_are_a_no_op() {
        for threads in [1, 4] {
            let stopped = with_pool(
                threads,
                |x: u64| x,
                |pool| pool.run_round(Vec::new(), |_, _| Control::Stop),
            );
            assert!(!stopped);
        }
    }

    #[test]
    fn a_worker_panic_resurfaces_on_the_caller_thread() {
        for threads in [1, 4] {
            let payload = std::panic::catch_unwind(|| {
                with_pool(
                    threads,
                    |x: u64| {
                        assert!(x != 3, "poisoned job");
                        x
                    },
                    |pool| {
                        pool.run_round((0..8).collect(), |_, _| Control::Continue);
                    },
                )
            })
            .expect_err("the poisoned job must panic the caller");
            // The original payload arrives intact, not re-wrapped.
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"poisoned job"),
                "threads={threads}"
            );
        }
    }
}
