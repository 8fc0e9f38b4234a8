//! Per-engine admission control: a token-bucket rate cap, a bounded
//! concurrency gate with a short wait queue, and typed load shedding.
//!
//! A fleet is only as healthy as its worst engine: one model whose
//! queries are 100× slower than the rest must not head-of-line-block
//! the worker pool for everyone else. Each registered engine therefore
//! owns an [`Admission`] that every explain, sync or async, passes through:
//!
//! * **rate** — an optional token bucket capping admitted queries per
//!   second. Over-rate requests shed *immediately* (no queueing — a
//!   rate cap exists to bound work, not to smooth it);
//! * **in-flight** — at most `max_in_flight` queries execute against
//!   the engine concurrently; the next `queue_depth` wait on a condvar
//!   with a `deadline` budget, and anything beyond that sheds at once;
//! * **shedding** — every shed is a typed `429` carrying
//!   `retry_after_ms`, counted per reason in `/metrics`
//!   (`shed_rate` / `shed_queue_full` / `shed_deadline`).
//!
//! The default configuration ([`AdmissionConfig::unlimited`]) admits
//! everything — admission is opt-in per engine, and the control knobs
//! survive hot pack swaps because the registry carries the same
//! `Arc<Admission>` over to the swapped-in entry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The knobs for one engine's admission gate.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Token-bucket rate cap in admitted queries per second
    /// (`None` = uncapped). The bucket holds at most ~50 ms of burst.
    pub rate: Option<u32>,
    /// Most queries executing against the engine at once.
    pub max_in_flight: usize,
    /// Most queries waiting for an in-flight slot before new arrivals
    /// shed immediately.
    pub queue_depth: usize,
    /// Longest a query waits for a slot before shedding.
    pub deadline: Duration,
}

impl AdmissionConfig {
    /// Admit everything: no rate cap, an effectively unbounded
    /// in-flight limit, no queue. This is the default for every
    /// registered engine — admission control is opt-in.
    pub fn unlimited() -> Self {
        AdmissionConfig {
            rate: None,
            max_in_flight: usize::MAX,
            queue_depth: 0,
            deadline: Duration::from_millis(0),
        }
    }

    /// Parse a comma-separated spec like
    /// `rate:1200,inflight:64,queue:64,deadline_ms:50`. Omitted keys
    /// keep their [`AdmissionConfig::unlimited`] value.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = AdmissionConfig::unlimited();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let Some((key, value)) = part.split_once(':') else {
                return Err(format!("admission spec {part:?}: expected KEY:VALUE"));
            };
            match key {
                "rate" => {
                    let rate: u32 = value
                        .parse()
                        .map_err(|_| format!("admission rate {value:?}: expected an integer"))?;
                    cfg.rate = if rate == 0 { None } else { Some(rate) };
                }
                "inflight" => {
                    cfg.max_in_flight = value.parse().map_err(|_| {
                        format!("admission inflight {value:?}: expected an integer")
                    })?;
                    if cfg.max_in_flight == 0 {
                        return Err("admission inflight must be at least 1".to_string());
                    }
                }
                "queue" => {
                    cfg.queue_depth = value
                        .parse()
                        .map_err(|_| format!("admission queue {value:?}: expected an integer"))?;
                }
                "deadline_ms" => {
                    let ms: u64 = value.parse().map_err(|_| {
                        format!("admission deadline_ms {value:?}: expected an integer")
                    })?;
                    cfg.deadline = Duration::from_millis(ms);
                }
                other => return Err(format!("unknown admission key {other:?}")),
            }
        }
        Ok(cfg)
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The token bucket is empty: the engine is over its rate cap.
    Rate,
    /// Every in-flight slot and every queue slot is taken.
    QueueFull,
    /// The request waited its whole deadline without getting a slot.
    Deadline,
}

impl ShedReason {
    /// The stable error code used on the wire and in `/metrics`.
    pub fn code(self) -> &'static str {
        match self {
            ShedReason::Rate => "overloaded",
            ShedReason::QueueFull => "queue_full",
            ShedReason::Deadline => "deadline_exceeded",
        }
    }
}

/// A shed decision: the reason plus the client's suggested backoff.
#[derive(Debug, Clone, Copy)]
pub struct Shed {
    /// Why the request was not admitted.
    pub reason: ShedReason,
    /// How long the client should wait before retrying, in ms
    /// (at least 1).
    pub retry_after_ms: u64,
}

/// Mutable gate state (behind the mutex).
struct Gate {
    config: AdmissionConfig,
    in_flight: usize,
    waiting: usize,
    /// Token bucket level; only meaningful while `config.rate` is set.
    tokens: f64,
    last_refill: Instant,
}

/// Monotonic shed/admit counters, readable without the gate lock.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionStats {
    /// Requests admitted (including after a queue wait).
    pub admitted: u64,
    /// Sheds because the rate cap's token bucket was empty.
    pub shed_rate: u64,
    /// Sheds because in-flight and queue slots were all taken.
    pub shed_queue_full: u64,
    /// Sheds because the queue deadline expired.
    pub shed_deadline: u64,
}

impl AdmissionStats {
    /// Total sheds across every reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_rate + self.shed_queue_full + self.shed_deadline
    }
}

/// One engine's admission gate. Shared as `Arc<Admission>` between the
/// registry entry and in-flight permits; hot pack swaps carry the same
/// gate over so counters and knobs survive the swap.
pub struct Admission {
    gate: Mutex<Gate>,
    slot_freed: Condvar,
    admitted: AtomicU64,
    shed_rate: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_deadline: AtomicU64,
}

/// Longest burst the token bucket accumulates, as a fraction of a
/// second's worth of tokens: 50 ms of headroom smooths scheduler
/// jitter without letting an idle engine bank a large debt of work.
const BURST_SECONDS: f64 = 0.05;

impl Admission {
    /// A gate with the given knobs.
    pub fn new(config: AdmissionConfig) -> Self {
        Admission {
            gate: Mutex::new(Gate {
                config,
                in_flight: 0,
                waiting: 0,
                tokens: 1.0,
                last_refill: Instant::now(),
            }),
            slot_freed: Condvar::new(),
            admitted: AtomicU64::new(0),
            shed_rate: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
        }
    }

    /// Replace the knobs. Takes effect for the next admission decision;
    /// queries already in flight or queued finish under the old rules.
    pub fn configure(&self, config: AdmissionConfig) {
        let mut gate = lock_gate(&self.gate);
        gate.tokens = gate.tokens.min(burst_cap(&config));
        gate.config = config;
        // waiters re-check against the new config when woken
        self.slot_freed.notify_all();
    }

    /// A copy of the current knobs.
    pub fn config(&self) -> AdmissionConfig {
        lock_gate(&self.gate).config.clone()
    }

    /// The monotonic counters.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_rate: self.shed_rate.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
        }
    }

    /// Try to admit one query. `Ok` returns a permit that must be held
    /// for the query's whole execution (dropping it frees the slot);
    /// `Err` is a shed with a suggested backoff.
    pub fn admit(self: &std::sync::Arc<Self>) -> Result<Permit, Shed> {
        let mut gate = lock_gate(&self.gate);

        // 1. the rate cap sheds immediately — a token bucket bounds
        //    work; queueing over-rate requests would defeat it
        if let Some(rate) = gate.config.rate {
            refill(&mut gate);
            if gate.tokens < 1.0 {
                let deficit_s = (1.0 - gate.tokens) / f64::from(rate.max(1));
                drop(gate);
                self.shed_rate.fetch_add(1, Ordering::Relaxed);
                return Err(Shed {
                    reason: ShedReason::Rate,
                    retry_after_ms: ((deficit_s * 1000.0).ceil() as u64).max(1),
                });
            }
            gate.tokens -= 1.0;
        }

        // 2. a free in-flight slot admits straight away
        if gate.in_flight < gate.config.max_in_flight {
            gate.in_flight += 1;
            drop(gate);
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(Permit {
                admission: std::sync::Arc::clone(self),
            });
        }

        // 3. full queue sheds immediately
        if gate.waiting >= gate.config.queue_depth {
            drop(gate);
            self.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(Shed {
                reason: ShedReason::QueueFull,
                retry_after_ms: retry_after_for_queue(self),
            });
        }

        // 4. wait for a slot, up to the deadline
        gate.waiting += 1;
        let deadline = gate.config.deadline;
        let started = Instant::now();
        loop {
            let remaining = deadline.saturating_sub(started.elapsed());
            if remaining.is_zero() {
                gate.waiting -= 1;
                drop(gate);
                self.shed_deadline.fetch_add(1, Ordering::Relaxed);
                return Err(Shed {
                    reason: ShedReason::Deadline,
                    retry_after_ms: retry_after_for_queue(self),
                });
            }
            let (next, timeout) = match self.slot_freed.wait_timeout(gate, remaining) {
                Ok(pair) => pair,
                Err(poisoned) => {
                    // a panicking permit holder poisons the mutex; the
                    // gate state itself is still consistent (Drop ran),
                    // so keep serving rather than wedging the engine
                    let pair = poisoned.into_inner();
                    (pair.0, pair.1)
                }
            };
            gate = next;
            if gate.in_flight < gate.config.max_in_flight {
                gate.waiting -= 1;
                gate.in_flight += 1;
                drop(gate);
                self.admitted.fetch_add(1, Ordering::Relaxed);
                return Ok(Permit {
                    admission: std::sync::Arc::clone(self),
                });
            }
            if timeout.timed_out() {
                gate.waiting -= 1;
                drop(gate);
                self.shed_deadline.fetch_add(1, Ordering::Relaxed);
                return Err(Shed {
                    reason: ShedReason::Deadline,
                    retry_after_ms: retry_after_for_queue(self),
                });
            }
        }
    }
}

/// An admitted query's slot; dropping it frees the slot and wakes one
/// waiter.
pub struct Permit {
    admission: std::sync::Arc<Admission>,
}

impl std::fmt::Debug for Permit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit").finish_non_exhaustive()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut gate = lock_gate(&self.admission.gate);
        gate.in_flight = gate.in_flight.saturating_sub(1);
        drop(gate);
        self.admission.slot_freed.notify_one();
    }
}

/// Lock the gate, recovering from poisoning: the protected state is
/// kept consistent by every unwind path, and a wedged admission gate
/// would take the whole engine offline.
fn lock_gate<'a>(gate: &'a Mutex<Gate>) -> MutexGuard<'a, Gate> {
    match gate.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn burst_cap(config: &AdmissionConfig) -> f64 {
    match config.rate {
        Some(rate) => (f64::from(rate) * BURST_SECONDS).max(1.0),
        None => 1.0,
    }
}

fn refill(gate: &mut Gate) {
    let Some(rate) = gate.config.rate else { return };
    let now = Instant::now();
    let elapsed = now.duration_since(gate.last_refill).as_secs_f64();
    gate.last_refill = now;
    let cap = (f64::from(rate) * BURST_SECONDS).max(1.0);
    gate.tokens = (gate.tokens + elapsed * f64::from(rate)).min(cap);
}

/// Suggested backoff for queue-full / deadline sheds: half the
/// deadline budget (a slot usually frees within one service time),
/// with a 1 ms floor so clients always back off a little.
fn retry_after_for_queue(admission: &Admission) -> u64 {
    let deadline = lock_gate(&admission.gate).config.deadline;
    (deadline.as_millis() as u64 / 2).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn unlimited_admits_everything() {
        let a = Arc::new(Admission::new(AdmissionConfig::unlimited()));
        let mut permits = Vec::new();
        for _ in 0..100 {
            permits.push(a.admit().unwrap());
        }
        assert_eq!(a.stats().admitted, 100);
        assert_eq!(a.stats().shed_total(), 0);
    }

    #[test]
    fn rate_cap_sheds_with_backoff() {
        let a = Arc::new(Admission::new(AdmissionConfig {
            rate: Some(10),
            ..AdmissionConfig::unlimited()
        }));
        // drain the burst allowance, then the bucket is empty
        let mut sheds = 0;
        for _ in 0..50 {
            match a.admit() {
                Ok(_permit) => {}
                Err(shed) => {
                    assert_eq!(shed.reason, ShedReason::Rate);
                    assert!(shed.retry_after_ms >= 1);
                    sheds += 1;
                }
            }
        }
        assert!(sheds > 0, "50 instant arrivals must out-run 10 qps");
        assert_eq!(a.stats().shed_rate, sheds);
    }

    #[test]
    fn queue_full_and_deadline_shed_are_typed() {
        let a = Arc::new(Admission::new(AdmissionConfig {
            rate: None,
            max_in_flight: 1,
            queue_depth: 0,
            deadline: Duration::from_millis(5),
        }));
        let _held = a.admit().unwrap();
        // no queue: the second arrival sheds immediately
        let shed = a.admit().unwrap_err();
        assert_eq!(shed.reason, ShedReason::QueueFull);

        // with a queue slot, the wait times out against a held permit
        a.configure(AdmissionConfig {
            rate: None,
            max_in_flight: 1,
            queue_depth: 1,
            deadline: Duration::from_millis(5),
        });
        let shed = a.admit().unwrap_err();
        assert_eq!(shed.reason, ShedReason::Deadline);
        assert!(shed.retry_after_ms >= 1);
        let stats = a.stats();
        assert_eq!(stats.shed_queue_full, 1);
        assert_eq!(stats.shed_deadline, 1);
    }

    #[test]
    fn queued_request_is_admitted_when_the_slot_frees() {
        let a = Arc::new(Admission::new(AdmissionConfig {
            rate: None,
            max_in_flight: 1,
            queue_depth: 4,
            deadline: Duration::from_secs(5),
        }));
        let held = a.admit().unwrap();
        let b = Arc::clone(&a);
        let waiter = std::thread::spawn(move || b.admit().map(|_p| ()).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        assert!(waiter.join().unwrap(), "waiter gets the freed slot");
        assert_eq!(a.stats().admitted, 2);
    }

    #[test]
    fn spec_parsing_round_trips_the_knobs() {
        let cfg = AdmissionConfig::parse("rate:1200,inflight:64,queue:16,deadline_ms:50").unwrap();
        assert_eq!(cfg.rate, Some(1200));
        assert_eq!(cfg.max_in_flight, 64);
        assert_eq!(cfg.queue_depth, 16);
        assert_eq!(cfg.deadline, Duration::from_millis(50));
        assert!(AdmissionConfig::parse("rate:0").unwrap().rate.is_none());
        assert!(AdmissionConfig::parse("nope:1").is_err());
        assert!(AdmissionConfig::parse("rate:x").is_err());
        assert!(AdmissionConfig::parse("inflight:0").is_err());
    }
}
