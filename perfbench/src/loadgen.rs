//! The load generator: pipelined wire connections driven as closed
//! loops (a fixed window of requests in flight per connection) or open
//! loops (requests sent on a Poisson schedule, timed from their due
//! time). One thread per connection; nothing else runs on the client
//! side.

use divot_fleet::wire::{decode_event, encode_request_tagged, write_frame, FrameBuffer};
use divot_fleet::{FleetError, Request, Response, WireEvent};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What a request came back with.
pub type Outcome = Result<Response, FleetError>;

/// The key of a `Stats` probe's record.
pub const STATS_KEY: u64 = u64::MAX;

/// Interval of an open loop's host CPU samples.
pub const HOST_SAMPLE: Duration = Duration::from_millis(100);

/// How long a phase may take to drain its in-flight requests.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// One answered request, its times in microseconds from its phase's
/// start. The reply is reduced by the caller's digest as it arrives, so
/// a run's memory does not grow with what the replies carry.
#[derive(Debug)]
pub struct Record<D> {
    /// The caller's key for the request (op index, batch index, or
    /// [`STATS_KEY`]).
    pub key: u64,
    /// When an open-loop request was due; `None` in a closed loop.
    pub due: Option<u32>,
    /// When it was written to the socket.
    pub sent: u32,
    /// When its reply was decoded.
    pub done: u32,
    /// The digested reply.
    pub reply: D,
}

impl<D> Record<D> {
    /// Latency in milliseconds: from due time in an open loop, from send
    /// time in a closed loop.
    pub fn latency_ms(&self) -> f64 {
        f64::from(self.done - self.due.unwrap_or(self.sent)) / 1e3
    }
}

/// The records of one phase.
#[derive(Debug)]
pub struct Phase<D> {
    /// When the phase started.
    pub start: Instant,
    /// When it stopped issuing requests: the end of a closed loop's
    /// measuring window, or of an open loop's schedule.
    pub end: Instant,
    /// Every answered request, in no particular order.
    pub records: Vec<Record<D>>,
    /// Host CPU samples taken about every [`HOST_SAMPLE`].
    pub host: Vec<HostSample>,
}

/// A host CPU sample: (µs from the phase start, steal ticks, all ticks).
pub type HostSample = (u32, u64, u64);

/// Sample the host's CPU counters if the next sample is due.
fn sample_host(start: Instant, now: Instant, next: &mut Instant, host: &mut Vec<HostSample>) {
    if now >= *next {
        if let Some(t) = crate::stamp::cpu_ticks() {
            host.push((micros(start, now), t[7], t.iter().sum()));
        }
        *next = now + HOST_SAMPLE;
    }
}

impl<D> Phase<D> {
    /// The instant `us` microseconds into the phase.
    pub fn at(&self, us: u32) -> Instant {
        self.start + Duration::from_micros(u64::from(us))
    }
}

/// Microseconds from `start` to `t`.
fn micros(start: Instant, t: Instant) -> u32 {
    u32::try_from(t.saturating_duration_since(start).as_micros())
        .expect("phases last under an hour")
}

/// Reduces a reply to what the caller keeps of it.
pub type Digest<'a, D> = &'a (dyn Fn(u64, Outcome) -> D + Sync);

/// A pipelined wire-v2 connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    next_id: u64,
    timeout: Option<Duration>,
    out: Vec<u8>,
}

impl Conn {
    /// Connect to the reactor at `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Self {
            stream,
            frames: FrameBuffer::new(),
            next_id: 0,
            timeout: None,
            out: Vec::new(),
        })
    }

    /// Frame `request` into the send buffer; returns the id its reply
    /// will carry.
    pub fn push(&mut self, request: &Request) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.out, &encode_request_tagged(id, request, None))
            .expect("requests stay under MAX_FRAME");
        id
    }

    /// Write every pushed frame in one call.
    pub fn flush(&mut self) -> Result<(), String> {
        if !self.out.is_empty() {
            self.stream
                .write_all(&self.out)
                .map_err(|e| format!("send: {e}"))?;
            self.out.clear();
        }
        Ok(())
    }

    /// Wait up to `timeout` for replies and append every complete one to
    /// `got`; returns with `got` unchanged when none arrived in time.
    pub fn poll(&mut self, timeout: Duration, got: &mut Vec<(u64, Outcome)>) -> Result<(), String> {
        let before = got.len();
        self.drain(got)?;
        if got.len() > before {
            return Ok(());
        }
        let timeout = Some(timeout.max(Duration::from_micros(1)));
        if self.timeout != timeout {
            self.stream
                .set_read_timeout(timeout)
                .map_err(|e| e.to_string())?;
            self.timeout = timeout;
        }
        let mut chunk = [0u8; 64 << 10];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.frames.extend(&chunk[..n]);
                self.drain(got)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    fn drain(&mut self, got: &mut Vec<(u64, Outcome)>) -> Result<(), String> {
        while let Some(payload) = self.frames.next_frame().map_err(|e| e.to_string())? {
            match decode_event(&payload).map_err(|e| e.to_string())? {
                WireEvent::Reply { id, outcome } => got.push((id, *outcome)),
                other => return Err(format!("unexpected server event {other:?}")),
            }
        }
        Ok(())
    }

    /// One round trip with nothing else in flight.
    pub fn call(&mut self, request: &Request) -> Result<Outcome, String> {
        let id = self.push(request);
        self.flush()?;
        let mut got = Vec::new();
        let deadline = Instant::now() + DRAIN_LIMIT;
        loop {
            self.poll(Duration::from_secs(1), &mut got)?;
            if let Some(i) = got.iter().position(|(g, _)| *g == id) {
                return Ok(got.swap_remove(i).1);
            }
            if Instant::now() > deadline {
                return Err("no reply within the drain limit".into());
            }
        }
    }
}

/// The `Stats` probe timer of connection 0.
struct Probe {
    every: Option<Duration>,
    next: Instant,
}

impl Probe {
    fn new(every: Option<Duration>, start: Instant) -> Self {
        Self {
            every,
            next: start + every.unwrap_or_default(),
        }
    }

    /// Push a probe if one is due; returns its id.
    fn fire(&mut self, conn: &mut Conn, now: Instant) -> Option<u64> {
        let every = self.every?;
        if now < self.next {
            return None;
        }
        self.next += every;
        Some(conn.push(&Request::Stats))
    }

    /// Time until the next probe, if probing.
    fn wait(&self, now: Instant) -> Option<Duration> {
        self.every.map(|_| self.next.saturating_duration_since(now))
    }
}

/// In-flight bookkeeping of one connection: id → (key, sent).
type InFlight = HashMap<u64, (u64, u32)>;

fn settle<D>(
    start: Instant,
    got: &mut Vec<(u64, Outcome)>,
    inflight: &mut InFlight,
    digest: Digest<'_, D>,
    records: &mut Vec<Record<D>>,
) -> Result<(), String> {
    let done = micros(start, Instant::now());
    for (id, outcome) in got.drain(..) {
        let (key, sent) = inflight
            .remove(&id)
            .ok_or_else(|| format!("reply to unknown request id {id}"))?;
        records.push(Record {
            key,
            due: None,
            sent,
            done,
            reply: digest(key, outcome),
        });
    }
    Ok(())
}

/// What one closed-loop connection brings back.
struct ConnRun<D> {
    records: Vec<Record<D>>,
    /// Whether the inputs ran out.
    exhausted: bool,
    /// Host samples (connection 0 takes them).
    host: Vec<HostSample>,
}

/// Run `conns` closed-loop connections for `duration`, each keeping
/// `window` requests in flight. `next` hands out `(key, request)` pairs
/// from a shared sequence and returns `None` when the inputs run out;
/// the window then ends at the last reply. Connection 0 also sends a
/// `Stats` probe every `stats_every`.
pub fn closed_loop<D: Send>(
    addr: SocketAddr,
    conns: usize,
    window: usize,
    duration: Duration,
    stats_every: Option<Duration>,
    next: &(dyn Fn() -> Option<(u64, Request)> + Sync),
    digest: Digest<'_, D>,
) -> Result<Phase<D>, String> {
    let mut sockets = (0..conns)
        .map(|_| Conn::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let end = start + duration;
    let per_conn = std::thread::scope(|s| {
        let handles: Vec<_> = sockets
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || -> Result<ConnRun<D>, String> {
                    let mut probe = Probe::new(stats_every.filter(|_| c == 0), start);
                    let mut host = Vec::new();
                    let mut next_sample = start;
                    let mut inflight = InFlight::new();
                    let mut records = Vec::new();
                    let mut got = Vec::new();
                    let mut exhausted = false;
                    loop {
                        let now = Instant::now();
                        if c == 0 {
                            sample_host(start, now, &mut next_sample, &mut host);
                        }
                        if now < end {
                            let sent = micros(start, now);
                            while !exhausted && inflight.len() < window {
                                match next() {
                                    Some((key, request)) => {
                                        inflight.insert(conn.push(&request), (key, sent));
                                    }
                                    None => exhausted = true,
                                }
                            }
                            if let Some(id) = probe.fire(conn, now) {
                                inflight.insert(id, (STATS_KEY, sent));
                            }
                        }
                        conn.flush()?;
                        if inflight.is_empty() && (now >= end || exhausted) {
                            return Ok(ConnRun {
                                records,
                                exhausted,
                                host,
                            });
                        }
                        if now > end + DRAIN_LIMIT {
                            return Err("closed loop did not drain".into());
                        }
                        let mut wait = end.saturating_duration_since(now);
                        if let Some(p) = probe.wait(now) {
                            wait = wait.min(p);
                        }
                        if now >= end {
                            wait = Duration::from_secs(1);
                        }
                        conn.poll(wait, &mut got)?;
                        settle(start, &mut got, &mut inflight, digest, &mut records)?;
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let exhausted = per_conn.iter().any(|run| run.exhausted);
    let mut host = Vec::new();
    let mut records = Vec::new();
    for run in per_conn {
        records.extend(run.records);
        host.extend(run.host);
    }
    let last = records.iter().map(|r| r.done).max().unwrap_or(0);
    let mut phase = Phase {
        start,
        end,
        records,
        host,
    };
    if exhausted {
        phase.end = phase.end.min(phase.at(last));
    }
    Ok(phase)
}

/// Send arrival `j` of `schedule` (seconds from the phase start) when
/// it is due, whatever the replies are doing, and time each from its due
/// time. `make(j)` builds arrival `j`'s `(key, request)`; requests are
/// built before the clock starts. A `Stats` probe goes out every
/// `stats_every`.
///
/// One connection, split between two threads: this one receives, a
/// second one sleeps until each due time and sends. A socket read
/// timeout would round every wait up to the kernel tick, so sending
/// never waits on the socket.
pub fn open_loop<D: Send>(
    addr: SocketAddr,
    schedule: &[f64],
    stats_every: Option<Duration>,
    make: &(dyn Fn(usize) -> (u64, Request) + Sync),
    digest: Digest<'_, D>,
) -> Result<Phase<D>, String> {
    let mut conn = Conn::connect(addr)?;
    let mut writer = conn.stream.try_clone().map_err(|e| e.to_string())?;
    let n = schedule.len();
    let requests: Vec<(u64, Request)> = (0..n).map(make).collect();
    let dues: Vec<Duration> = schedule
        .iter()
        .map(|&t| Duration::from_secs_f64(t))
        .collect();
    let last_due = dues.last().copied().unwrap_or_default();
    // Requests sent in all, published by the sender once it is done.
    let sent_total = AtomicU64::new(u64::MAX);
    let start = Instant::now();
    let mut host = Vec::new();
    let (sent, probes, replies) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut sent = Vec::with_capacity(n);
            let mut probes: Vec<Instant> = Vec::new();
            let mut next_probe = stats_every.map(|e| (start + e, e));
            let mut out = Vec::new();
            let mut send = || -> Result<(), String> {
                while sent.len() < n {
                    let now = Instant::now();
                    if let Some((at, every)) = next_probe.as_mut() {
                        if *at <= now {
                            let id = (n + probes.len()) as u64;
                            write_frame(
                                &mut out,
                                &encode_request_tagged(id, &Request::Stats, None),
                            )
                            .expect("requests stay under MAX_FRAME");
                            probes.push(now);
                            *at += *every;
                        }
                    }
                    while sent.len() < n && start + dues[sent.len()] <= now {
                        let id = sent.len();
                        write_frame(
                            &mut out,
                            &encode_request_tagged(id as u64, &requests[id].1, None),
                        )
                        .expect("requests stay under MAX_FRAME");
                        sent.push(now);
                    }
                    if !out.is_empty() {
                        writer.write_all(&out).map_err(|e| format!("send: {e}"))?;
                        out.clear();
                    }
                    if let Some(&due) = dues.get(sent.len()) {
                        let mut wake = start + due;
                        if let Some((at, _)) = next_probe {
                            wake = wake.min(at);
                        }
                        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
                    }
                }
                Ok(())
            };
            let outcome = send();
            sent_total.store((sent.len() + probes.len()) as u64, Ordering::SeqCst);
            outcome.map(|()| (sent, probes))
        });
        let mut replies = Vec::with_capacity(n);
        let mut got = Vec::new();
        let mut next_sample = start;
        let received = loop {
            sample_host(start, Instant::now(), &mut next_sample, &mut host);
            if replies.len() as u64 >= sent_total.load(Ordering::SeqCst) {
                break Ok(());
            }
            if Instant::now() > start + last_due + DRAIN_LIMIT {
                break Err("open loop did not drain".to_owned());
            }
            if let Err(e) = conn.poll(HOST_SAMPLE, &mut got) {
                break Err(e);
            }
            let done = Instant::now();
            replies.extend(got.drain(..).map(|(id, outcome)| {
                let key = requests.get(id as usize).map_or(STATS_KEY, |r| r.0);
                (id, done, digest(key, outcome))
            }));
        };
        let (sent, probes) = sender.join().expect("load generator thread panicked")?;
        received.map(|()| (sent, probes, replies))
    })?;
    let records = replies
        .into_iter()
        .map(|(id, done, reply)| {
            let id = id as usize;
            let (key, due, sent) = if id < n {
                (
                    requests[id].0,
                    Some(micros(start, start + dues[id])),
                    sent[id],
                )
            } else {
                let sent = *probes
                    .get(id - n)
                    .ok_or_else(|| format!("reply to unknown request id {id}"))?;
                (STATS_KEY, None, sent)
            };
            Ok(Record {
                key,
                due,
                sent: micros(start, sent),
                done: micros(start, done),
                reply,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Phase {
        start,
        end: start + last_due,
        records,
        host,
    })
}
