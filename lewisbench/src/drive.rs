//! Load generators: an open loop that sends on a fixed schedule and
//! times each answer from when it was due, and closed loops that send
//! the next request as soon as the previous one is answered.

use crate::client::{request_bytes, Conn, Reply};
use lewis_serve::Json;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a job-lane ticket is polled.
const POLL_EVERY: Duration = Duration::from_millis(1);

/// Longest a job may stay unfinished after it was due before the run
/// counts it failed.
const JOB_BUDGET: Duration = Duration::from_secs(60);

/// Which lane an operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// A synchronous global, contextual or local explain.
    Read,
    /// A synchronous recourse explain.
    Recourse,
    /// A `POST …/rows` append batch.
    Append,
    /// A recourse explain through `?mode=async`, submit to terminal poll.
    Job,
}

/// One scheduled operation.
#[derive(Clone)]
pub struct Op {
    /// When it is due, from the start of the loop.
    pub due: Duration,
    pub lane: Lane,
    pub request: Arc<[u8]>,
    /// The caller's label (the batch number of an append).
    pub tag: usize,
}

/// One answered operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub lane: Lane,
    /// Open loop: completion minus due time. Closed loop: completion
    /// minus send time.
    pub latency_us: f64,
    /// Answered (a 200 or an expected 422).
    pub ok: bool,
}

/// What one generator thread saw.
#[derive(Default)]
pub struct Log {
    pub samples: Vec<Sample>,
    /// Open loop: send time minus due time, per send.
    pub late_us: Vec<f64>,
    /// Job lane: the `202` round trip.
    pub submit_us: Vec<f64>,
    /// Operations started (a job counts once).
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
    /// Append answers that armed a background compaction.
    pub compactions_armed: u64,
    /// Tags of the appends that were accepted, in send order.
    pub appended: Vec<usize>,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
}

impl Log {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Merge per-thread logs.
    pub fn merge(logs: Vec<Log>) -> Log {
        let mut all = Log::default();
        for log in logs {
            all.samples.extend(log.samples);
            all.late_us.extend(log.late_us);
            all.submit_us.extend(log.submit_us);
            all.attempted += log.attempted;
            all.failed += log.failed;
            all.compactions_armed += log.compactions_armed;
            all.appended.extend(log.appended);
            for e in log.errors {
                if all.errors.len() < 5 {
                    all.errors.push(e);
                }
            }
        }
        all
    }

    /// Latencies of one lane, answered operations only.
    pub fn latencies(&self, lane: Lane) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.lane == lane && s.ok)
            .map(|s| s.latency_us)
            .collect()
    }

    /// Answered operations.
    pub fn answered(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }
}

fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A connection that reconnects after a transport error.
pub struct Link {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl Link {
    pub fn new(addr: SocketAddr) -> Link {
        Link { addr, conn: None }
    }

    pub fn send(&mut self, request: &[u8]) -> Result<Reply, String> {
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(self.addr).map_err(|e| format!("connect: {e}"))?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        conn.send(request).map_err(|e| {
            self.conn = None;
            format!("transport: {e}")
        })
    }
}

/// A job ticket waiting for its next poll.
struct Ticket {
    next: Instant,
    due: Instant,
    poll: Vec<u8>,
}

/// Run `ops` (sorted by due time) as an open loop from `start` on one
/// connection. Job-lane tickets are polled between scheduled sends, so
/// a slow job never holds the schedule.
pub fn open_loop(addr: SocketAddr, ops: &[Op], start: Instant) -> Log {
    let mut log = Log::default();
    let mut link = Link::new(addr);
    let mut tickets: VecDeque<Ticket> = VecDeque::new();
    let mut i = 0;
    loop {
        let next_op = ops.get(i).map(|op| start + op.due);
        let next_poll = tickets.front().map(|t| t.next);
        let poll_first = match (next_op, next_poll) {
            (None, None) => break,
            (Some(o), Some(p)) => p < o,
            (None, Some(_)) => true,
            (Some(_), None) => false,
        };
        if poll_first {
            let ticket = tickets.pop_front().expect("peeked above");
            wait_until(ticket.next);
            match poll_job(&mut link, &ticket.poll) {
                Ok(None) if ticket.due.elapsed() < JOB_BUDGET => tickets.push_back(Ticket {
                    next: Instant::now() + POLL_EVERY,
                    ..ticket
                }),
                Ok(None) => log.fail("job did not finish within its budget".into()),
                Ok(Some(reply)) => {
                    let ok = reply.answered();
                    if !ok {
                        log.fail(format!("job answered {}", reply.status));
                    }
                    log.samples.push(Sample {
                        lane: Lane::Job,
                        latency_us: micros(ticket.due.elapsed()),
                        ok,
                    });
                }
                Err(e) => log.fail(e),
            }
            continue;
        }
        let op = &ops[i];
        i += 1;
        let due = start + op.due;
        wait_until(due);
        let sent = Instant::now();
        log.late_us.push(micros(sent - due));
        log.attempted += 1;
        let reply = match link.send(&op.request) {
            Ok(reply) => reply,
            Err(e) => {
                log.fail(e);
                continue;
            }
        };
        match op.lane {
            Lane::Job => {
                let ticket = (reply.status == 202).then(|| job_id(&reply)).flatten();
                match ticket {
                    Some(id) => {
                        log.submit_us.push(micros(sent.elapsed()));
                        tickets.push_back(Ticket {
                            next: Instant::now() + POLL_EVERY,
                            due,
                            poll: request_bytes("GET", &format!("/v1/jobs/{id}"), ""),
                        });
                    }
                    None => log.fail(format!("job submit answered {}", reply.status)),
                }
            }
            Lane::Append => {
                let ok = reply.status == 200;
                if ok {
                    log.appended.push(op.tag);
                    if contains(&reply.body, b"\"compaction_armed\":true") {
                        log.compactions_armed += 1;
                    }
                } else {
                    log.fail(format!("append answered {}", reply.status));
                }
                log.samples.push(Sample {
                    lane: op.lane,
                    latency_us: micros(due.elapsed()),
                    ok,
                });
            }
            Lane::Read | Lane::Recourse => {
                let ok = reply.answered();
                if !ok {
                    log.fail(format!("explain answered {}", reply.status));
                }
                log.samples.push(Sample {
                    lane: op.lane,
                    latency_us: micros(due.elapsed()),
                    ok,
                });
            }
        }
    }
    log
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

fn job_id(reply: &Reply) -> Option<String> {
    let json = Json::parse(std::str::from_utf8(&reply.body).ok()?).ok()?;
    json.get("job_id")?.as_str().map(str::to_string)
}

/// Poll a job once: `Ok(None)` while it is queued or running, otherwise
/// the replayed synchronous answer.
pub fn poll_job(link: &mut Link, poll: &[u8]) -> Result<Option<Reply>, String> {
    let view = link.send(poll)?;
    if view.status != 200 {
        return Err(format!("job poll answered {}", view.status));
    }
    let text = std::str::from_utf8(&view.body).map_err(|_| "job view is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("job view: {e}"))?;
    match json.get("state").and_then(Json::as_str) {
        Some("queued") | Some("running") => Ok(None),
        Some("done") => {
            let status = json
                .get("status")
                .and_then(Json::as_f64)
                .ok_or("done job without a status")? as u16;
            let body = json
                .get("result")
                .ok_or("done job without a result")?
                .to_json();
            Ok(Some(Reply {
                status,
                body: body.into_bytes(),
            }))
        }
        other => Err(format!("job ended in state {other:?}")),
    }
}

/// A closed loop on one connection: send whatever `next` yields, each
/// as soon as the previous answer is in, until it yields `None`.
pub fn closed_loop(addr: SocketAddr, mut next: impl FnMut() -> Option<(Lane, Arc<[u8]>)>) -> Log {
    let mut log = Log::default();
    let mut link = Link::new(addr);
    while let Some((lane, request)) = next() {
        log.attempted += 1;
        let sent = Instant::now();
        match link.send(&request) {
            Ok(reply) => {
                let ok = reply.answered();
                if !ok {
                    log.fail(format!("explain answered {}", reply.status));
                }
                log.samples.push(Sample {
                    lane,
                    latency_us: micros(sent.elapsed()),
                    ok,
                });
            }
            Err(e) => log.fail(e),
        }
    }
    log
}
