//! Per-layer timings for the traced run. Every number here is taken from
//! the benchmark's own code around a call into one layer's public
//! function, on inputs generated from the workload seed, and the
//! one-in-flight wire round trip is reconciled against them in a ledger.

use crate::loadgen::Conn;
use crate::oracle::Oracle;
use crate::workload::{
    enroll_rows, intake_rows, Seeds, Workload, COHORT_BOARDS, INTAKE_BATCH, LAYER_BASE,
};
use divot_cohort::PopulationModel;
use divot_core::exec::ExecPolicy;
use divot_core::tamper::{TamperDetector, TamperPolicy};
use divot_dsp::waveform::Waveform;
use divot_fleet::wire::{
    decode_event, decode_wire_request, encode_request_tagged, encode_tagged_response, write_frame,
    FrameBuffer,
};
use divot_fleet::{FleetClient, FleetStore, Request, Response, SimulatedFleet};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of a cheap timing loop; the median is reported.
const REPS: usize = 21;
/// Calls per repetition of a nanosecond-scale loop.
const INNER: usize = 64;
/// Warm devices the per-op loops cycle through.
const WARM: usize = 16;
/// Cold devices whose first touch is timed.
const FABRICATE: usize = 20;
/// Repetitions of a loop whose every call costs a 16-board batch.
const BATCH_REPS: usize = 7;
/// Interleaved one-in-flight repetitions of the ledger round trip.
const LEDGER_REPS: usize = 61;
/// Ledger repetitions when the op is a cold 16-board intake batch.
const LEDGER_BATCH_REPS: usize = 11;
/// Intake batches the traced run keeps back from the load generator:
/// every timed first touch needs boards neither fleet has seen.
pub const LAYER_BATCHES: u64 = 2 + 2 * BATCH_REPS as u64 + 3 * LEDGER_BATCH_REPS as u64;

/// One per-layer figure.
pub type Figure = (&'static str, &'static str, f64);

/// The one-in-flight round trip, split by layer (µs).
#[derive(Debug)]
pub struct Ledger {
    /// The op the ledger times.
    pub op: &'static str,
    /// `(layer, µs)` components, in request-path order.
    pub rows: Vec<(&'static str, f64)>,
    /// The measured wire round trip.
    pub round_trip_us: f64,
}

impl Ledger {
    /// Round trip minus every timed component.
    pub fn residual_us(&self) -> f64 {
        self.round_trip_us - self.rows.iter().map(|(_, us)| us).sum::<f64>()
    }
}

/// Median of a timing loop's repetitions.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v[v.len() / 2]
}

/// Seconds `f` took, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// Median nanoseconds per call of `f(k)` over `REPS × INNER` calls.
fn ns_per_call(mut f: impl FnMut(usize)) -> f64 {
    median(
        (0..REPS)
            .map(|_| timed(|| (0..INNER).for_each(&mut f)).1 * 1e9 / INNER as f64)
            .collect(),
    )
}

/// Where the traced run gets its inputs.
pub struct Inputs<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its seeds.
    pub seeds: &'a Seeds,
    /// The benchmark's own fleet, fabricated from the service's config.
    pub oracle: &'a mut Oracle,
    /// An in-process client of the service under test.
    pub client: FleetClient,
    /// A wire connection to the same service.
    pub conn: &'a mut Conn,
    /// First intake batch held back for the traced run.
    pub layer_batch: u64,
}

/// A supply of devices neither fleet has touched yet.
struct Cold<'a> {
    workload: Workload,
    seeds: &'a Seeds,
    next_device: usize,
    next_batch: u64,
}

impl Cold<'_> {
    /// `n` cold `(device, nonce)` rows. Device workloads draw from the
    /// upper half of the enrolled range in the benchmark's own fleet;
    /// intake draws held-back boards, cold in both fleets.
    fn rows(&mut self, n: usize) -> Vec<(String, u64)> {
        let mut rows = Vec::with_capacity(n);
        while rows.len() < n {
            if self.workload == Workload::IntakeCold {
                rows.extend(intake_rows(self.seeds, self.next_batch));
                self.next_batch += 1;
            } else {
                assert!(
                    self.next_device < self.workload.enrolled(),
                    "cold devices ran out"
                );
                rows.push((
                    SimulatedFleet::device_name(self.next_device),
                    self.seeds.nonce(LAYER_BASE + self.next_device as u64),
                ));
                self.next_device += 1;
            }
        }
        rows.truncate(n);
        rows
    }
}

/// Time every layer the workload's requests pass through — and the
/// ones it bypasses, which a change to them should leave alone.
pub fn measure(inputs: Inputs<'_>) -> Result<(Vec<Figure>, Ledger), String> {
    let Inputs {
        workload,
        seeds,
        oracle,
        client,
        conn,
        layer_batch,
    } = inputs;
    let mut nonce = LAYER_BASE + (1 << 30);
    let mut fresh = || {
        nonce += 1;
        seeds.nonce(nonce)
    };
    let mut cold = Cold {
        workload,
        seeds,
        next_device: workload.enrolled() / 2,
        next_batch: layer_batch,
    };
    let sim = oracle.sim();
    let warm: Vec<String> = (0..WARM).map(SimulatedFleet::device_name).collect();
    let mut out: Vec<Figure> = Vec::new();

    // sim.fabricate_us: first touch minus a warm acquire of the same
    // device — the txline render the per-device memo keeps.
    let fabricate = median(
        cold.rows(FABRICATE)
            .iter()
            .map(|(name, n)| {
                let first = timed(|| sim.acquire(name, *n)).1;
                let again = timed(|| sim.acquire(name, n ^ 1)).1;
                (first - again) * 1e6
            })
            .collect(),
    );

    // itdr.sweep_us: a warm acquire (the analytic sweep plus channel set-up).
    for name in &warm {
        sim.acquire(name, fresh());
    }
    let sweep = median(
        (0..REPS * 2)
            .map(|k| timed(|| sim.acquire(&warm[k % WARM], fresh())).1 * 1e6)
            .collect(),
    );

    // par.speedup: one 16-board batch, serial vs auto fan-out. Intake
    // batches are cold boards; the device workloads' are warm.
    let mut batch = |policy: ExecPolicy| {
        let rows = if workload == Workload::IntakeCold {
            cold.rows(INTAKE_BATCH)
        } else {
            warm.iter().map(|name| (name.clone(), fresh())).collect()
        };
        timed(|| sim.acquire_batch(&rows, policy)).1
    };
    let (mut serial, mut auto) = (Vec::new(), Vec::new());
    for _ in 0..BATCH_REPS {
        serial.push(batch(ExecPolicy::Serial));
        auto.push(batch(ExecPolicy::auto()));
    }
    let speedup = median(serial) / median(auto);

    // cohort.learn_ms / cohort.attest_us on the workload's first
    // COHORT_BOARDS devices (intake's cohort: the service's model).
    let cohort_rows = enroll_rows(seeds, COHORT_BOARDS.min(workload.enrolled()));
    let (model, fingerprints) = oracle.learn(&cohort_rows);
    let views: Vec<&[f64]> = fingerprints.iter().map(Waveform::samples).collect();
    let config = oracle.config().clone();
    let learn = median(
        (0..BATCH_REPS)
            .map(|_| timed(|| PopulationModel::learn(&views, config.cohort)).1 * 1e3)
            .collect(),
    );
    let attest = ns_per_call(|k| {
        black_box(model.attest(views[k % views.len()]));
    }) / 1e3;

    // registry.enroll_us: SimulatedFleet::enroll of a warm device.
    let sim = oracle.sim();
    let enroll = median(
        (0..REPS)
            .map(|k| timed(|| sim.enroll(&warm[k % WARM], fresh())).1 * 1e6)
            .collect(),
    );

    // auth.verify_ns / tamper.scan_ns against the enrolled references.
    let enroll_nonces: Vec<u64> = enroll_rows(seeds, WARM)
        .into_iter()
        .map(|(_, n)| n)
        .collect();
    let measured: Vec<Waveform> = warm
        .iter()
        .map(|name| sim.acquire(name, fresh()).expect("device exists"))
        .collect();
    let store = FleetStore::new(config.shards);
    let mut thresholds = HashMap::new();
    for (k, name) in warm.iter().enumerate() {
        let e = oracle.enrollment(k, enroll_nonces[k]);
        store.register(name, e.pairing.clone());
        thresholds.insert(name.clone(), e.threshold);
    }
    let authenticator = *oracle.authenticator();
    let detectors: Vec<TamperDetector> = warm
        .iter()
        .map(|name| {
            TamperDetector::new(TamperPolicy {
                threshold: thresholds[name],
                ..config.tamper
            })
        })
        .collect();
    let references: Vec<Waveform> = warm
        .iter()
        .map(|name| {
            store
                .with_pairing(name, |p| p.master.iip().clone())
                .expect("registered")
        })
        .collect();
    let masters: Vec<_> = warm
        .iter()
        .map(|name| {
            store
                .with_pairing(name, |p| p.master.clone())
                .expect("registered")
        })
        .collect();
    let verify_ns = ns_per_call(|k| {
        black_box(authenticator.verify(&masters[k % WARM], &measured[k % WARM]));
    });
    let scan_ns = ns_per_call(|k| {
        black_box(detectors[k % WARM].scan(&references[k % WARM], &measured[k % WARM]));
    });

    // store.read_ns / store.write_ns on a benchmark-owned store holding
    // as many devices as the workload enrolls.
    let pairing = oracle.enrollment(0, enroll_nonces[0]).pairing.clone();
    let names: Vec<String> = (0..workload.enrolled())
        .map(SimulatedFleet::device_name)
        .collect();
    let bulk = FleetStore::new(config.shards);
    bulk.register_batch(names.iter().map(|n| (n.clone(), pairing.clone())).collect());
    let read_ns = ns_per_call(|k| {
        black_box(bulk.with_pairing(&names[k * 7 % names.len()], |p| p.master.iip().len()));
    });
    let write_ns = median(
        (0..REPS)
            .map(|_| {
                let copies: Vec<_> = (0..INNER).map(|_| pairing.clone()).collect();
                let t = Instant::now();
                for (k, p) in copies.into_iter().enumerate() {
                    black_box(bulk.register(&names[k * 7 % names.len()], p));
                }
                t.elapsed().as_secs_f64() * 1e9 / INNER as f64
            })
            .collect(),
    );

    // The ledger: one request in flight at a time. Each repetition runs
    // the request's computation directly, timing every layer call inside
    // it, then sends the same kind of request through the in-process
    // client and over the wire, so all of them see the same host.
    let (op, decide, ledger_reps): (&'static str, &'static str, usize) = match workload {
        Workload::VerifyFresh => ("verify", "auth.verify", LEDGER_REPS),
        Workload::MonitorMixed => ("scan", "tamper.scan", LEDGER_REPS),
        Workload::IntakeCold => ("intake_scan", "cohort.attest", LEDGER_BATCH_REPS),
    };
    let sim = oracle.sim();
    let mut request = |k: usize| -> Request {
        let device = warm[k % WARM].clone();
        match workload {
            Workload::VerifyFresh => Request::Verify {
                device,
                nonce: fresh(),
            },
            Workload::MonitorMixed => Request::MonitorScan {
                device,
                nonce: fresh(),
            },
            Workload::IntakeCold => Request::IntakeScan {
                devices: cold.rows(INTAKE_BATCH),
            },
        }
    };
    // Seconds of (acquisition, decision, store read, whole computation).
    let direct = |req: &Request| -> [f64; 4] {
        let start = Instant::now();
        let (acquire, decide, read) = match req {
            Request::Verify { device, nonce } => {
                let (measured, acquire) =
                    timed(|| sim.acquire(device, *nonce).expect("device exists"));
                let ((_, decide), read) = timed(|| {
                    store
                        .with_pairing(device, |p| {
                            timed(|| authenticator.verify(&p.master, &measured))
                        })
                        .expect("registered")
                });
                (acquire, decide, read - decide)
            }
            Request::MonitorScan { device, nonce } => {
                let (measured, acquire) =
                    timed(|| sim.acquire(device, *nonce).expect("device exists"));
                let detector = TamperDetector::new(TamperPolicy {
                    threshold: thresholds[device],
                    ..config.tamper
                });
                let ((_, decide), read) = timed(|| {
                    store
                        .with_pairing(device, |p| {
                            timed(|| detector.scan(p.master.iip(), &measured))
                        })
                        .expect("registered")
                });
                (acquire, decide, read - decide)
            }
            Request::IntakeScan { devices } => {
                let (batch, acquire) = timed(|| {
                    sim.acquire_batch(devices, ExecPolicy::auto())
                        .expect("boards exist")
                });
                let (_, decide) = timed(|| {
                    batch
                        .iter()
                        .map(|w| model.attest(w.samples()))
                        .collect::<Vec<_>>()
                });
                (acquire, decide, 0.0)
            }
            other => unreachable!("no ledger for {other:?}"),
        };
        [acquire, decide, read, start.elapsed().as_secs_f64()]
    };
    let mut parts: [Vec<f64>; 4] = Default::default();
    let (mut t_call, mut t_wire) = (Vec::new(), Vec::new());
    let mut sample: Option<(Request, Response)> = None;
    for k in 0..ledger_reps {
        // Rotate which path goes first, so none always follows another.
        for path in (0..3).map(|p| (p + k) % 3) {
            let req = request(k);
            match path {
                0 => {
                    for (part, t) in parts.iter_mut().zip(direct(&req)) {
                        part.push(t * 1e6);
                    }
                }
                1 => {
                    let (reply, t) = timed(|| client.call(req));
                    reply.map_err(|e| format!("ledger in-process call failed: {e}"))?;
                    t_call.push(t * 1e6);
                }
                _ => {
                    let (reply, t) = timed(|| conn.call(&req));
                    let reply = reply?.map_err(|e| format!("ledger wire call failed: {e}"))?;
                    t_wire.push(t * 1e6);
                    sample = Some((req, reply));
                }
            }
        }
    }
    let [acquire_us, decide_us, read_us, direct_us] = parts.map(median);
    let (call_us, wire_us) = (median(t_call), median(t_wire));
    let handoff = call_us - direct_us;
    let transport = wire_us - call_us;
    let mut rows = vec![
        (
            if workload == Workload::IntakeCold {
                "sim.acquire_batch"
            } else {
                "itdr.sweep"
            },
            acquire_us,
        ),
        (decide, decide_us),
    ];
    if workload != Workload::IntakeCold {
        rows.push(("store.read", read_us));
    }
    rows.push(("service.handoff", handoff));
    rows.push(("reactor.transport", transport));
    let ledger = Ledger {
        op,
        rows,
        round_trip_us: wire_us,
    };

    // wire.codec_ns / wire.bytes_per_op: encode, frame and decode the
    // ledger op's request and its reply.
    let (req, reply) = sample.expect("ledger ran");
    let outcome = Ok(reply);
    let mut bytes = 0usize;
    let codec = ns_per_call(|k| {
        let id = k as u64;
        let mut frames = FrameBuffer::new();
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request_tagged(id, &req, None)).expect("fits a frame");
        let n_req = wire.len();
        frames.extend(&wire);
        let payload = frames.next_frame().expect("valid").expect("complete");
        black_box(decode_wire_request(&payload).expect("decodes"));
        wire.clear();
        write_frame(&mut wire, &encode_tagged_response(id, &outcome)).expect("fits a frame");
        bytes = n_req + wire.len();
        frames.extend(&wire);
        let payload = frames.next_frame().expect("valid").expect("complete");
        black_box(decode_event(&payload).expect("decodes"));
    });

    out.push(("itdr.sweep_us", "us", sweep));
    out.push(("sim.fabricate_us", "us", fabricate));
    out.push(("par.speedup", "x", speedup));
    out.push(("cohort.learn_ms", "ms", learn));
    out.push(("cohort.attest_us", "us", attest));
    out.push(("registry.enroll_us", "us", enroll));
    out.push(("tamper.scan_ns", "ns", scan_ns));
    out.push(("auth.verify_ns", "ns", verify_ns));
    out.push(("store.read_ns", "ns", read_ns));
    out.push(("store.write_ns", "ns", write_ns));
    out.push(("service.handoff_us", "us", handoff));
    out.push(("reactor.transport_us", "us", transport));
    out.push(("wire.codec_ns", "ns", codec));
    out.push(("wire.bytes_per_op", "B", bytes as f64));
    out.push((
        "ledger.residual_frac",
        "fraction",
        ledger.residual_us() / wire_us,
    ));
    Ok((out, ledger))
}
