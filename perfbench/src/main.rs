//! End-to-end benchmark of the DIVOT fleet service: a `FleetService`
//! behind the reactor, driven over loopback TCP with fresh-nonce
//! requests, every reply checked against a recomputing oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload verify_fresh --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics and the ledger. Human-readable lines start with `#`; the last
//! line of standard output is one JSON object. The exit code is nonzero
//! when any checked reply differs from the oracle, or when the run
//! cannot be measured at all (then no JSON line is printed).

mod judge;
mod layers;
mod loadgen;
mod oracle;
mod quantile;
mod stamp;
mod workload;

use divot_dsp::roc::auc;
use divot_fleet::{
    FleetConfig, FleetService, FleetSimConfig, FleetStats, FleetTcpServer, Request, Response,
    SimulatedFleet,
};
use judge::{Judge, Reply, Tally};
use loadgen::{Conn, Phase};
use oracle::Oracle;
use quantile::Sample;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use workload::{
    enroll_rows, intake_anomalies, intake_board, intake_rows, poisson_schedule, Op, Seeds,
    Workload, INTAKE_BATCH, OPEN_BASE, STATS_EVERY_MS,
};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of a device workload's seconds spent in the closed loop; the
/// rest is the open loop.
const CLOSED_SHARE: f64 = 0.4;
/// Requests in flight per connection in the device workloads' closed
/// loop, and in intake's (whose requests are 16-board batches).
const DEVICE_WINDOW: usize = 8;
const INTAKE_WINDOW: usize = 1;
/// Intake batches scanned per second of `--seconds`: the closed loop
/// scans this fixed lot of never-seen boards (ending early if it is
/// done), so `peak_rss_mb` compares the same number of memoized boards
/// whatever the speed of the build.
const INTAKE_LOT_PER_S: u64 = 64;
/// Open-loop requests per latency group: its p99 has 20 samples beyond.
const LATENCY_GROUP: usize = 2000;
/// Rows per `EnrollBatch` request at set-up.
const ENROLL_CHUNK: usize = 128;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag}"));
        }
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let num = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// The service configuration every workload deploys.
fn service_config(workers: usize) -> FleetConfig {
    FleetConfig::default().with_workers(workers)
}

/// The intake lot of a run of `seconds`, in batches.
fn intake_lot(seconds: u64) -> u64 {
    INTAKE_LOT_PER_S * seconds
}

fn sim_config(w: Workload, seeds: &Seeds, seconds: u64) -> FleetSimConfig {
    match w {
        Workload::IntakeCold => {
            let batches = intake_lot(seconds) + layers::LAYER_BATCHES;
            FleetSimConfig::fast(intake_board(batches, 0), seeds.fleet)
                .with_anomalies(intake_anomalies(seeds, batches))
        }
        _ => FleetSimConfig::fast(w.enrolled(), seeds.fleet),
    }
}

/// A running service behind the reactor. Fields drop in order: the
/// reactor stops before the workers.
struct Deployment {
    server: FleetTcpServer,
    service: FleetService,
    /// `intake_cold`'s `CohortEnroll` reply.
    cohort: Option<Response>,
    /// When set-up finished.
    ready: Instant,
}

impl Deployment {
    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// Fabricate the fleet, start service and reactor, and enroll over the
/// wire: `EnrollBatch` chunks for the device workloads (which also warm
/// the fabrication memo), the cohort's `CohortEnroll` for intake.
fn setup(w: Workload, seeds: &Seeds, seconds: u64, workers: usize) -> Result<Deployment, String> {
    let sim = SimulatedFleet::new(sim_config(w, seeds, seconds));
    let service = FleetService::start(service_config(workers), sim);
    let server = FleetTcpServer::spawn(service.client(), "127.0.0.1:0")
        .map_err(|e| format!("reactor start: {e}"))?;
    let mut conn = Conn::connect(server.local_addr())?;
    let rows = enroll_rows(seeds, w.enrolled());
    let mut cohort = None;
    if w == Workload::IntakeCold {
        let reply = conn
            .call(&Request::CohortEnroll { devices: rows })?
            .map_err(|e| format!("cohort enroll: {e}"))?;
        cohort = Some(reply);
    } else {
        let chunks: Vec<_> = rows.chunks(ENROLL_CHUNK).collect();
        for chunk in &chunks {
            conn.push(&Request::EnrollBatch {
                devices: chunk.to_vec(),
            });
        }
        conn.flush()?;
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(120);
        while got.len() < chunks.len() {
            if Instant::now() > deadline {
                return Err("enrollment did not finish".into());
            }
            conn.poll(Duration::from_secs(1), &mut got)?;
        }
        for (id, outcome) in got {
            match outcome {
                Ok(Response::EnrolledBatch { devices })
                    if devices.len() == chunks[id as usize].len() => {}
                other => return Err(format!("enroll batch {id}: {other:?}")),
            }
        }
    }
    Ok(Deployment {
        server,
        service,
        cohort,
        ready: Instant::now(),
    })
}

/// The timed phases of one run.
struct Timed {
    closed: Phase<Reply>,
    open: Option<Phase<Reply>>,
}

fn run_phases(
    w: Workload,
    seeds: &Seeds,
    seconds: u64,
    addr: SocketAddr,
    conns: usize,
    judge: &Judge,
) -> Result<Timed, String> {
    let stats_every = (w == Workload::MonitorMixed).then(|| Duration::from_millis(STATS_EVERY_MS));
    let digest = |key, outcome| judge.digest(key, outcome);
    let counter = AtomicU64::new(0);
    let Some(rate) = w.open_rate() else {
        let lot = intake_lot(seconds);
        let next = || {
            let b = counter.fetch_add(1, Ordering::Relaxed);
            (b < lot).then(|| {
                (
                    b,
                    Request::IntakeScan {
                        devices: intake_rows(seeds, b),
                    },
                )
            })
        };
        let window = Duration::from_secs(seconds);
        let closed =
            loadgen::closed_loop(addr, conns, INTAKE_WINDOW, window, None, &next, &digest)?;
        return Ok(Timed { closed, open: None });
    };
    let closed_s = seconds as f64 * CLOSED_SHARE;
    let next = || {
        let i = counter.fetch_add(1, Ordering::Relaxed);
        Some((i, Op::generate(seeds, w, i).request()))
    };
    let window = Duration::from_secs_f64(closed_s);
    let closed = loadgen::closed_loop(
        addr,
        conns,
        DEVICE_WINDOW,
        window,
        stats_every,
        &next,
        &digest,
    )?;
    let arrivals = (rate * (seconds as f64 - closed_s)).round() as usize;
    let schedule = poisson_schedule(seeds, rate, arrivals);
    let make = |j: usize| {
        let key = OPEN_BASE + j as u64;
        (key, Op::generate(seeds, w, key).request())
    };
    let open = loadgen::open_loop(addr, &schedule, stats_every, &make, &digest)?;
    Ok(Timed {
        closed,
        open: Some(open),
    })
}

/// Microseconds from a phase's start to its end.
fn span_us(phase: &Phase<Reply>) -> u32 {
    u32::try_from((phase.end - phase.start).as_micros()).expect("phases last under an hour")
}

/// The second of a phase that `us` microseconds fall in.
fn second(us: u32) -> usize {
    (us / 1_000_000) as usize
}

/// The share of the host's CPU time stolen in each of `spans` (`[from,
/// to)` µs of a phase), from the samples `host` around it; 0 where no
/// samples bracket a span.
fn stolen(host: &[loadgen::HostSample], spans: &[(u32, u32)]) -> Vec<f64> {
    spans
        .iter()
        .map(|&(from, to)| {
            let a = host.iter().rev().find(|s| s.0 <= from).or(host.first());
            let b = host.iter().find(|s| s.0 >= to).or(host.last());
            match (a, b) {
                (Some(a), Some(b)) if b.2 > a.2 => (b.1 - a.1) as f64 / (b.2 - a.2) as f64,
                _ => 0.0,
            }
        })
        .collect()
}

/// The calm intervals of a phase: see `run`.
struct Calm {
    /// `[from, to)` µs of each interval between host samples, in order.
    spans: Vec<(u32, u32)>,
    /// Whether each interval counts.
    kept: Vec<bool>,
}

impl Calm {
    /// The intervals between the phase's host samples; each counts when
    /// nothing was stolen in it, or, when fewer than half do, the
    /// least-stolen half count.
    fn intervals(host: &[loadgen::HostSample]) -> Self {
        let spans: Vec<(u32, u32)> = host.windows(2).map(|w| (w[0].0, w[1].0)).collect();
        let stolen = stolen(host, &spans);
        let mut kept: Vec<bool> = stolen.iter().map(|&s| s == 0.0).collect();
        let half = spans.len().div_ceil(2);
        if kept.iter().filter(|&&k| k).count() < half {
            let mut order: Vec<usize> = (0..spans.len()).collect();
            order.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]));
            kept = vec![false; spans.len()];
            for &k in &order[..half] {
                kept[k] = true;
            }
        }
        Self { spans, kept }
    }

    /// Whether the span holding `us` counts (the nearest span, outside
    /// them all).
    fn is_calm_at(&self, us: u32) -> bool {
        let k = self.spans.partition_point(|s| s.1 <= us);
        self.kept
            .get(k.min(self.kept.len().saturating_sub(1)))
            .copied()
            .unwrap_or(true)
    }

    /// The share of the phase's sampled time that counts.
    fn kept_share(&self) -> f64 {
        let time = |keep: bool| -> f64 {
            self.spans
                .iter()
                .zip(&self.kept)
                .filter(|(_, &k)| k || !keep)
                .map(|(s, _)| f64::from(s.1 - s.0))
                .sum()
        };
        time(true) / time(false).max(1.0)
    }
}

/// Latency of a record in ms; a failed request misses every limit.
fn latency_ms(r: &loadgen::Record<Reply>) -> f64 {
    match r.reply {
        Reply::Failed(_) | Reply::Wrong => f64::INFINITY,
        _ => r.latency_ms(),
    }
}

/// The median across `bins` of each bin's `q`-quantile, with every
/// bin's value and sample count for the report.
fn binned_quantile(bins: &[Vec<f64>], q: f64) -> Result<(f64, String), quantile::Refused> {
    let per_bin = bins
        .iter()
        .map(|bin| Sample::new(bin.clone()).quantile(q))
        .collect::<Result<Vec<_>, _>>()?;
    let shown: Vec<String> = per_bin
        .iter()
        .map(|q| format!("{:.4} (n={}, {} beyond)", q.value, q.samples, q.beyond))
        .collect();
    Ok((
        layers::median(per_bin.iter().map(|q| q.value).collect()),
        shown.join(", "),
    ))
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The `metrics` object: every value finite, printed with every digit.
fn json_metrics(metrics: &[(&str, &str, f64)]) -> Result<String, String> {
    let mut rows = Vec::new();
    for (name, unit, value) in metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        rows.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", rows.join(", ")))
}

fn stats_call(conn: &mut Conn) -> Result<FleetStats, String> {
    match conn.call(&Request::Stats)? {
        Ok(Response::StatsSnapshot { stats }) => Ok(stats),
        other => Err(format!("stats probe answered {other:?}")),
    }
}

fn counter_delta(before: &FleetStats, after: &FleetStats, names: &[&str]) -> f64 {
    names
        .iter()
        .map(|n| {
            after
                .counter(n)
                .unwrap_or(0)
                .saturating_sub(before.counter(n).unwrap_or(0)) as f64
        })
        .sum()
}

fn run(args: &Args, process_start: Instant) -> Result<bool, String> {
    let w = args.workload;
    let seeds = Seeds::derive(args.seed);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    stamp::print(w.name(), &seeds, workers, args.seconds, args.trace);
    let ticks = stamp::cpu_ticks();
    // A metrics registry with no event sink, as a deployed fleet runs it
    // for `fleet_top`; request tracing stays off.
    let _ = divot_telemetry::install(divot_telemetry::Telemetry::new());

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut deployment = None;
    for k in 0..setups {
        drop(deployment.take());
        let t0 = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let d = setup(w, &seeds, args.seconds, workers)?;
        setup_s.push(d.ready.duration_since(t0).as_secs_f64());
        deployment = Some(d);
    }
    let deployment = deployment.expect("at least one set-up");
    let addr = deployment.addr();
    let mut conn = Conn::connect(addr)?;
    let stats_before = stats_call(&mut conn)?;
    let judge = Judge::new(w, seeds, service_config(workers).shards);
    let timed = run_phases(w, &seeds, args.seconds, addr, workers, &judge)?;
    let stats_after = stats_call(&mut conn)?;

    // Hypervisor steal stalls every thread of the run and says nothing of
    // the program. Capacity is the median over the closed loop's seconds
    // of completions per second of CPU time the hypervisor left the host:
    // each second's rate divided by one minus its stolen share. Latency
    // is taken over the ~100 ms intervals between host samples in which
    // nothing was stolen (the least-stolen half, when fewer were).
    let closed = &timed.closed;
    let closed_us = span_us(closed);
    let seconds = (closed_us / 1_000_000) as usize;
    if seconds == 0 {
        return Err("the closed loop measured less than one second".into());
    }
    let per_op = if w == Workload::IntakeCold {
        INTAKE_BATCH as f64
    } else {
        1.0
    };
    let mut per_second = vec![0usize; seconds];
    let mut completed = 0;
    for r in judge::ops(closed).filter(|r| r.done <= closed_us) {
        completed += 1;
        if let Some(n) = per_second.get_mut(second(r.done)) {
            *n += 1;
        }
    }
    let spans: Vec<(u32, u32)> = (0..seconds as u32)
        .map(|k| (k * 1_000_000, (k + 1) * 1_000_000))
        .collect();
    let rates: Vec<(f64, f64)> = per_second
        .iter()
        .zip(stolen(&closed.host, &spans))
        .map(|(&n, stolen)| (n as f64 * per_op, stolen))
        .collect();
    let throughput = layers::median(rates.iter().map(|(r, s)| r / (1.0 - s)).collect());
    let shown: Vec<String> = rates
        .iter()
        .map(|(r, s)| format!("{r:.0} ({:.1}% stolen)", 100.0 * s))
        .collect();
    println!(
        "# closed loop: {workers} conns x window {} for {:.3} s, {completed} requests completed; one-second rates: {}",
        if w == Workload::IntakeCold { INTAKE_WINDOW } else { DEVICE_WINDOW },
        f64::from(closed_us) / 1e6,
        shown.join(", "),
    );
    if w == Workload::IntakeCold && (completed as u64) < intake_lot(args.seconds) {
        println!(
            "# intake lot not finished within --seconds: {completed} of {} batches",
            intake_lot(args.seconds)
        );
    }

    // Latency: an open loop's requests due in its calm intervals, timed
    // from their due time and taken in due order in groups of
    // LATENCY_GROUP; the run reports the median of the groups' p50s and
    // p99s. Intake's batches completed in calm intervals of its closed
    // loop form one sample (all of its batches, when fewer than 1,000
    // were).
    let bins: Vec<Vec<f64>> = match &timed.open {
        Some(open) => {
            let calm = Calm::intervals(&open.host);
            let mut due: Vec<_> = judge::ops(open)
                .filter(|r| calm.is_calm_at(r.due.expect("open-loop records carry a due time")))
                .collect();
            due.sort_by_key(|r| r.due);
            let mut groups: Vec<Vec<f64>> = due
                .chunks(LATENCY_GROUP)
                .map(|g| g.iter().copied().map(latency_ms).collect())
                .collect();
            // A short last group joins the one before it.
            if groups.len() > 1 && groups[groups.len() - 1].len() < LATENCY_GROUP {
                let last = groups.pop().expect("more than one group");
                groups.last_mut().expect("more than one group").extend(last);
            }
            println!(
                "# open loop: {} of {} requests due in calm intervals ({:.0}% of the sampled time)",
                due.len(),
                judge::ops(open).count(),
                100.0 * calm.kept_share()
            );
            groups
        }
        None => {
            let calm = Calm::intervals(&closed.host);
            let done = || judge::ops(closed).filter(|r| r.done <= closed_us);
            let kept: Vec<f64> = done()
                .filter(|r| calm.is_calm_at(r.done))
                .map(latency_ms)
                .collect();
            println!(
                "# closed loop: {} batches completed in calm intervals ({:.0}% of the sampled time)",
                kept.len(),
                100.0 * calm.kept_share()
            );
            if kept.len() >= 1000 {
                vec![kept]
            } else {
                vec![done().map(latency_ms).collect()]
            }
        }
    };
    let mut late_p99_ms = 0.0;
    let mut offered = throughput;
    if let Some(open) = &timed.open {
        let late = Sample::new(
            judge::ops(open)
                .map(|r| f64::from(r.sent.saturating_sub(r.due.expect("open loop"))) / 1e3)
                .collect(),
        );
        late_p99_ms = late
            .quantile(0.99)
            .map_err(|e| format!("loadgen.late_p99_ms: {e}"))?
            .value;
        let span = f64::from(span_us(open)) / 1e6;
        offered = late.len() as f64 / span;
        println!(
            "# open loop: offered {:.0}/s Poisson, {} arrivals over {span:.3} s, sent at {offered:.1}/s, generator late p99 {late_p99_ms:.3} ms",
            w.open_rate().expect("open-loop workload"),
            late.len(),
        );
    }
    for (q, name) in [(0.5, "latency_p50_ms"), (0.99, "latency_p99_ms")] {
        match binned_quantile(&bins, q) {
            Ok((value, shown)) => println!(
                "# {name} = {value:.4} ms, median of {} groups: {shown}",
                bins.len()
            ),
            Err(refused) => println!("# {name}: {refused}"),
        }
    }

    // Per-layer timings need the live service; the oracle's fleet
    // doubles as the benchmark's own.
    let mut oracle = Oracle::new(sim_config(w, &seeds, args.seconds), service_config(workers));
    let mut per_layer = Vec::new();
    if args.trace {
        let (figures, ledger) = layers::measure(layers::Inputs {
            workload: w,
            seeds: &seeds,
            oracle: &mut oracle,
            client: deployment.service.client(),
            conn: &mut conn,
            layer_batch: intake_lot(args.seconds),
        })?;
        per_layer = figures;
        let rows: Vec<String> = ledger
            .rows
            .iter()
            .map(|(layer, us)| format!("{layer}={us:.1}"))
            .collect();
        println!(
            "# ledger ({}, one in flight, us): round_trip={:.1} = {} + residual={:.1} ({:.1}%)",
            ledger.op,
            ledger.round_trip_us,
            rows.join(" + "),
            ledger.residual_us(),
            100.0 * ledger.residual_us() / ledger.round_trip_us,
        );
    }
    let ready = deployment.ready;
    let cohort = deployment.cohort.clone();
    drop(conn);
    drop(deployment);

    let phases: Vec<&Phase<Reply>> = std::iter::once(&timed.closed)
        .chain(timed.open.as_ref())
        .collect();
    let tally = Tally::count(&judge, &phases, ready, cohort.as_ref(), &mut oracle);
    let error_rate = (tally.failed + tally.mismatched) as f64 / tally.attempted.max(1) as f64;
    println!(
        "# error_rate = {error_rate} fraction (failed {} + mismatched {} of {} attempted; {} false rejects; typed errors {:?})",
        tally.failed, tally.mismatched, tally.attempted, tally.false_rejects, tally.errors
    );
    println!(
        "# oracle: {} replies recomputed, {} mismatched",
        tally.checked, tally.mismatched
    );
    if w == Workload::IntakeCold {
        println!(
            "# detect_auc = {:.5} (counterfeit+tap {} vs genuine {} boards)",
            auc(&tally.genuine_scores, &tally.flagged_scores),
            tally.flagged_scores.len(),
            tally.genuine_scores.len()
        );
    } else {
        match Sample::new(tally.margins.clone()).quantile(0.01) {
            Ok(q) => println!(
                "# genuine_margin_p1 = {:.5} similarity (n={}, {} below; lowest {:.5})",
                q.value,
                q.samples,
                q.beyond,
                tally.margins.iter().copied().fold(f64::INFINITY, f64::min)
            ),
            Err(e) => println!("# genuine_margin_p1: {e}"),
        }
    }
    if w == Workload::MonitorMixed {
        println!(
            "# false_alarm_rate = {:.5} fraction ({} of {} clean scans detected, on {} devices)",
            tally.alarms as f64 / tally.scans.max(1) as f64,
            tally.alarms,
            tally.scans,
            tally.alarm_devices.len()
        );
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let hist = |name: &str| stats_after.histogram(name).unwrap_or((0, 0.0, 0.0, 0.0));
        let delta = |names: &[&str]| counter_delta(&stats_before, &stats_after, names);
        let (_, wait_p50, _, wait_p99) = hist("fleet.queue.wait_ns");
        let hits = delta(&[
            "fleet.cache.l1_hits",
            "fleet.cache.l2_hits",
            "fleet.reactor.inline_hits",
        ]);
        let lookups = hits + delta(&["fleet.cache.misses"]);
        let mut m = per_layer;
        m.push((
            "store.lock_hold_p99_ns",
            "ns",
            hist("fleet.store.lock_hold_ns").3,
        ));
        m.push(("service.queue_wait_p50_us", "us", wait_p50 / 1e3));
        m.push(("service.queue_wait_p99_us", "us", wait_p99 / 1e3));
        m.push((
            "service.sheds",
            "count",
            delta(&["fleet.shed", "fleet.reactor.sheds_fair"]),
        ));
        m.push((
            "service.deadline_misses",
            "count",
            delta(&["fleet.deadline_misses"]),
        ));
        m.push((
            "reactor.frames_per_wakeup",
            "frames",
            delta(&["fleet.reactor.frames"]) / delta(&["fleet.reactor.wakeups"]).max(1.0),
        ));
        m.push((
            "cache.hit_ratio",
            "fraction",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        ));
        m.push(("loadgen.offered_per_s", "1/s", offered));
        m.push(("loadgen.late_p99_ms", "ms", late_p99_ms));
        m
    } else {
        // latency_p50_ms and latency_p99_ms are printed above, not
        // reported here: on a shared 2-vCPU VM the open-loop latency at a
        // third of capacity is set by how soon the hypervisor runs an
        // idle or stolen vCPU again, and repeated runs spread by more than
        // any bound a regression check could use.
        vec![
            ("setup_s", "s", layers::median(setup_s)),
            ("throughput_per_s", "ops/s", throughput),
            ("peak_rss_mb", "MB", peak_rss_mb()?),
        ]
    };
    stamp::print_steal(ticks);
    for (name, unit, value) in &metrics {
        println!("# {name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.mismatched == 0,
        tally.attempted,
        tally.failed + tally.mismatched,
        json_metrics(&metrics)?
    );
    Ok(tally.mismatched == 0)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <verify_fresh|intake_cold|monitor_mixed> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: replies differ from the oracle");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
