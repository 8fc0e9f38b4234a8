//! # lewis-jobs — a bounded async job lane for explanation servers
//!
//! Some clients would rather not hold an HTTP connection open while a
//! piece of explain work runs — a wide batch, say. This crate provides
//! the serving layer's job lane for them: submit work, get a ticket
//! immediately, poll for the result.
//!
//! * **Bounded admission** — the queue holds at most
//!   [`JobConfig::capacity`] pending jobs; past that, [`submit`]
//!   returns [`QueueFull`] so the server can answer a typed `429`
//!   instead of buffering unboundedly.
//! * **Observable lifecycle** — every job moves `Queued → Running →
//!   Done(T) | Failed`, with per-job queue-wait and run timings for
//!   `/metrics`.
//! * **Self-cleaning** — finished jobs are evicted once they have been
//!   terminal for [`JobConfig::ttl`]; a polled-then-forgotten job
//!   cannot leak memory forever.
//! * **Panic-isolated** — a panicking job is recorded as
//!   [`JobState::Failed`]; the worker thread survives and keeps
//!   draining the queue.
//! * **Std-only** — a mutex, a condvar and plain threads; no runtime.
//!
//! Submit and poll:
//!
//! ```
//! use lewis_jobs::{JobConfig, JobManager, JobState};
//! use std::time::Duration;
//!
//! let jobs: JobManager<u32> = JobManager::new(JobConfig {
//!     capacity: 8,
//!     workers: 2,
//!     ttl: Duration::from_secs(60),
//! })
//! .expect("job workers spawn");
//! let id = jobs.submit(|| 6 * 7).expect("queue has room");
//! let answer = loop {
//!     match jobs.status(id).expect("within the TTL").state {
//!         JobState::Done(v) => break v,
//!         JobState::Failed(e) => panic!("job failed: {e}"),
//!         JobState::Queued | JobState::Running => std::thread::yield_now(),
//!     }
//! };
//! assert_eq!(answer, 42);
//! ```
//!
//! [`submit`]: JobManager::submit

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Opaque job ticket, unique per [`JobManager`] for its lifetime.
/// Formats as a plain decimal (`job-42` style prefixes are the
/// server's business), parses back with [`str::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::str::FromStr for JobId {
    type Err = std::num::ParseIntError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.parse().map(JobId)
    }
}

/// Sizing and retention knobs for a [`JobManager`].
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Most jobs allowed to sit queued (running and finished jobs do
    /// not count). `0` rejects every submission — useful for tests and
    /// for disabling the lane without a second code path.
    pub capacity: usize,
    /// Worker threads draining the queue (clamped to at least 1).
    pub workers: usize,
    /// How long a finished job stays pollable. Eviction is lazy — it
    /// happens on the next [`JobManager::submit`] or
    /// [`JobManager::status`] call after expiry.
    pub ttl: Duration,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            capacity: 64,
            workers: 2,
            ttl: Duration::from_secs(300),
        }
    }
}

/// The queue is at capacity; the caller should shed load (HTTP `429`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job queue is at capacity")
    }
}

impl std::error::Error for QueueFull {}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState<T> {
    /// Waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the payload is the job's result.
    Done(T),
    /// The job panicked; the payload describes the failure.
    Failed(String),
}

impl<T> JobState<T> {
    /// Done or Failed — the job will never change state again.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_))
    }

    /// The lifecycle stage as a lowercase wire word.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// A point-in-time view of one job, as returned by
/// [`JobManager::status`].
#[derive(Debug, Clone)]
pub struct JobView<T> {
    /// Current lifecycle state (result included when `Done`).
    pub state: JobState<T>,
    /// Time spent queued (final once the job starts running).
    pub waited: Duration,
    /// Time spent executing so far (final once terminal); `None` while
    /// still queued.
    pub ran: Option<Duration>,
}

/// Lifetime counters, for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCounters {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs that panicked.
    pub failed: u64,
    /// Submissions rejected with [`QueueFull`].
    pub rejected: u64,
    /// Finished jobs evicted after their TTL.
    pub expired: u64,
}

/// One job's record: its state plus the instants bounding each stage.
struct JobRecord<T> {
    state: JobState<T>,
    queued_at: Instant,
    started_at: Option<Instant>,
    finished_at: Option<Instant>,
}

type BoxedJob<T> = Box<dyn FnOnce() -> T + Send + 'static>;

struct State<T> {
    queue: VecDeque<(JobId, BoxedJob<T>)>,
    jobs: HashMap<JobId, JobRecord<T>>,
    counters: JobCounters,
    next_id: u64,
    shutdown: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    wake: Condvar,
    capacity: usize,
    ttl: Duration,
}

impl<T> Shared<T> {
    /// Lock the state, recovering from a poisoned mutex: the state is
    /// a queue plus per-job records, every transition of which is a
    /// single-field write — a panic between fields cannot leave it
    /// unsound, only a job stuck, and the panicking worker already
    /// recorded the job as failed or will never touch it again.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Drop finished records whose TTL has elapsed. Lazy: called under
    /// the lock from submit/status, never from a timer thread.
    fn evict_expired(&self, state: &mut State<T>, now: Instant) {
        let ttl = self.ttl;
        let before = state.jobs.len();
        state.jobs.retain(|_, job| {
            job.finished_at
                .is_none_or(|at| now.duration_since(at) < ttl)
        });
        state.counters.expired += (before - state.jobs.len()) as u64;
    }
}

/// A bounded job queue with `workers` threads draining it. `T` is the
/// job result type — the serving layer uses a status-code/body pair so
/// a finished job replays exactly like a synchronous response.
///
/// Dropping the manager shuts the lane down: queued-but-unstarted jobs
/// are abandoned and the worker threads are joined.
pub struct JobManager<T> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> JobManager<T> {
    /// Start a manager with `config.workers` (at least one) threads.
    /// Fails when a worker thread cannot be spawned; the workers already
    /// started are shut down and joined first.
    pub fn new(config: JobConfig) -> std::io::Result<Self> {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                counters: JobCounters::default(),
                next_id: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            capacity: config.capacity,
            ttl: config.ttl,
        });
        // built before the spawns, so a failed spawn drops (and joins)
        // the workers already running
        let mut manager = JobManager {
            shared,
            workers: Vec::new(),
        };
        for i in 0..config.workers.max(1) {
            let shared = Arc::clone(&manager.shared);
            manager.workers.push(
                std::thread::Builder::new()
                    .name(format!("lewis-job-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(manager)
    }

    /// Queue `job` and return its ticket, or [`QueueFull`] when
    /// `capacity` jobs are already waiting.
    pub fn submit(&self, job: impl FnOnce() -> T + Send + 'static) -> Result<JobId, QueueFull> {
        let now = Instant::now();
        let mut state = self.shared.lock();
        self.shared.evict_expired(&mut state, now);
        if state.queue.len() >= self.shared.capacity {
            state.counters.rejected += 1;
            return Err(QueueFull);
        }
        let id = JobId(state.next_id);
        state.next_id += 1;
        state.jobs.insert(
            id,
            JobRecord {
                state: JobState::Queued,
                queued_at: now,
                started_at: None,
                finished_at: None,
            },
        );
        state.queue.push_back((id, Box::new(job)));
        state.counters.submitted += 1;
        drop(state);
        self.shared.wake.notify_one();
        Ok(id)
    }

    /// The job's current state and timings, or `None` when the id was
    /// never issued or the job expired (the server answers `404` for
    /// both — an expired ticket is indistinguishable from a bogus one
    /// by design, so retention is a pure sizing knob).
    pub fn status(&self, id: JobId) -> Option<JobView<T>>
    where
        T: Clone,
    {
        let now = Instant::now();
        let mut state = self.shared.lock();
        self.shared.evict_expired(&mut state, now);
        let job = state.jobs.get(&id)?;
        let started = job.started_at;
        Some(JobView {
            state: job.state.clone(),
            waited: started.unwrap_or(now).duration_since(job.queued_at),
            ran: started.map(|s| job.finished_at.unwrap_or(now).duration_since(s)),
        })
    }

    /// Jobs queued right now (the admission bound applies to this).
    pub fn depth(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Lifetime counters.
    pub fn counters(&self) -> JobCounters {
        self.shared.lock().counters
    }
}

impl<T> Drop for JobManager<T> {
    fn drop(&mut self) {
        {
            let mut state = self.shared.lock();
            state.shutdown = true;
            state.queue.clear();
        }
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop<T: Send + 'static>(shared: &Shared<T>) {
    loop {
        let (id, job) = {
            let mut state = shared.lock();
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(next) = state.queue.pop_front() {
                    break next;
                }
                state = shared.wake.wait(state).unwrap_or_else(|p| p.into_inner());
            }
        };
        let started = Instant::now();
        {
            let mut state = shared.lock();
            if let Some(record) = state.jobs.get_mut(&id) {
                record.state = JobState::Running;
                record.started_at = Some(started);
            }
        }
        // Isolate panics: a failing job must not take the worker (and
        // every job queued behind it) down with it.
        let outcome = catch_unwind(AssertUnwindSafe(job));
        let finished = Instant::now();
        let mut state = shared.lock();
        match outcome {
            Ok(value) => {
                state.counters.completed += 1;
                if let Some(record) = state.jobs.get_mut(&id) {
                    record.state = JobState::Done(value);
                    record.finished_at = Some(finished);
                }
            }
            Err(panic) => {
                state.counters.failed += 1;
                let detail = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "job panicked".to_string());
                if let Some(record) = state.jobs.get_mut(&id) {
                    record.state = JobState::Failed(detail);
                    record.finished_at = Some(finished);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T: Clone + Send + 'static>(jobs: &JobManager<T>, id: JobId) -> JobState<T> {
        loop {
            let view = jobs.status(id).expect("job evaporated while polling");
            if view.state.is_terminal() {
                return view.state;
            }
            std::thread::yield_now();
        }
    }

    fn manager(capacity: usize, ttl: Duration) -> JobManager<u32> {
        JobManager::new(JobConfig {
            capacity,
            workers: 2,
            ttl,
        })
        .unwrap()
    }

    #[test]
    fn submit_poll_done_carries_the_result() {
        let jobs = manager(8, Duration::from_secs(60));
        let id = jobs.submit(|| 41 + 1).unwrap();
        assert_eq!(drain(&jobs, id), JobState::Done(42));
        let view = jobs.status(id).unwrap();
        assert_eq!(view.state.name(), "done");
        assert!(view.ran.is_some(), "terminal jobs report a run time");
        let c = jobs.counters();
        assert_eq!((c.submitted, c.completed, c.failed), (1, 1, 0));
    }

    #[test]
    fn jobs_run_concurrently_across_workers() {
        let jobs = manager(8, Duration::from_secs(60));
        let ids: Vec<_> = (0..6u32)
            .map(|i| jobs.submit(move || i * i).unwrap())
            .collect();
        for (i, id) in ids.into_iter().enumerate() {
            let i = i as u32;
            assert_eq!(drain(&jobs, id), JobState::Done(i * i));
        }
        assert_eq!(jobs.depth(), 0);
    }

    #[test]
    fn zero_capacity_rejects_every_submission() {
        let jobs = manager(0, Duration::from_secs(60));
        assert_eq!(jobs.submit(|| 1).unwrap_err(), QueueFull);
        assert_eq!(jobs.counters().rejected, 1);
    }

    #[test]
    fn overflow_is_a_typed_rejection() {
        let jobs = manager(1, Duration::from_secs(60));
        // wedge both workers so the queue backs up
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut wedged = Vec::new();
        for _ in 0..2 {
            // capacity is 1, so wait for the previous wedge job to be
            // picked up before queueing the next (the queue drains at
            // scheduler speed, which is arbitrary under test load)
            while jobs.depth() > 0 {
                std::thread::yield_now();
            }
            let gate = Arc::clone(&gate);
            wedged.push(
                jobs.submit(move || {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    0
                })
                .unwrap(),
            );
        }
        // wait until both are off the queue and running
        while jobs.depth() > 0 {
            std::thread::yield_now();
        }
        let queued = jobs.submit(|| 7).unwrap();
        assert_eq!(jobs.submit(|| 8).unwrap_err(), QueueFull);
        // release the wedge; everything accepted still finishes
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        for id in wedged {
            assert_eq!(drain(&jobs, id), JobState::Done(0));
        }
        assert_eq!(drain(&jobs, queued), JobState::Done(7));
        assert_eq!(jobs.counters().rejected, 1);
    }

    #[test]
    fn panicking_jobs_fail_and_the_worker_survives() {
        let jobs = manager(8, Duration::from_secs(60));
        let bad = jobs.submit(|| panic!("surrogate exploded")).unwrap();
        match drain(&jobs, bad) {
            JobState::Failed(detail) => assert!(detail.contains("surrogate exploded")),
            other => panic!("expected Failed, got {other:?}"),
        }
        // the lane still works
        let good = jobs.submit(|| 5).unwrap();
        assert_eq!(drain(&jobs, good), JobState::Done(5));
        let c = jobs.counters();
        assert_eq!((c.completed, c.failed), (1, 1));
    }

    #[test]
    fn finished_jobs_expire_after_the_ttl() {
        let jobs = manager(8, Duration::from_millis(20));
        let id = jobs.submit(|| 1).unwrap();
        assert!(drain(&jobs, id).is_terminal());
        std::thread::sleep(Duration::from_millis(40));
        assert!(jobs.status(id).is_none(), "expired jobs read as unknown");
        assert_eq!(jobs.counters().expired, 1);
    }

    #[test]
    fn unknown_ids_are_none() {
        let jobs = manager(8, Duration::from_secs(60));
        assert!(jobs.status(JobId(999)).is_none());
    }

    #[test]
    fn job_ids_round_trip_through_strings() {
        let id = JobId(17);
        assert_eq!(id.to_string().parse::<JobId>().unwrap(), id);
        assert!("not-a-job".parse::<JobId>().is_err());
    }

    #[test]
    fn drop_joins_workers_and_abandons_the_queue() {
        let jobs = manager(64, Duration::from_secs(60));
        for i in 0..32u32 {
            let _ = jobs.submit(move || i);
        }
        drop(jobs); // must not hang
    }
}
