//! Reactor ⇄ in-process equivalence and pipelined determinism.
//!
//! The reactor is a transport: for any conversation its reply bytes
//! must be exactly `encode_tagged_response(id, &client.call(request))`
//! on the in-process [`FleetClient`](divot_fleet::FleetClient) of a
//! twin service, and pipelined verdicts must be bitwise stable across
//! worker counts (the fleet determinism contract lifted onto the
//! wire). A malformed connection must die alone, and a frame of an
//! unsupported wire version is refused with a typed error while the
//! connection lives on.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use divot_fleet::wire::{
    decode_event, encode_request_tagged, encode_response, encode_tagged_response, write_frame,
    FrameBuffer,
};
use divot_fleet::{
    FleetConfig, FleetError, FleetService, FleetSimConfig, FleetTcpServer, PipelinedFleetClient,
    Request, Response, SimulatedFleet, WireEvent,
};

const SEED: u64 = 77;
const BUSES: usize = 4;
/// Bound on any single blocking read: a hung server fails the test
/// instead of stalling it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

fn start_service(workers: usize) -> FleetService {
    // The cohort floor drops to the tiny test fleet so the script can
    // exercise the population-model path over the wire too.
    let mut config = FleetConfig::default().with_workers(workers);
    config.cohort = divot_cohort::CohortConfig {
        min_cohort: BUSES,
        ..divot_cohort::CohortConfig::default()
    };
    FleetService::start(config, SimulatedFleet::new(FleetSimConfig::fast(BUSES, SEED)))
}

/// A raw connection: frames written as given, replies read back as
/// undecoded payloads through the same [`FrameBuffer`] the reactor uses.
struct RawConn {
    stream: TcpStream,
    frames: FrameBuffer,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(READ_TIMEOUT)).expect("timeout");
        Self {
            stream,
            frames: FrameBuffer::new(),
        }
    }

    /// The next reply payload, or `None` once the server closed.
    fn recv(&mut self) -> Option<Vec<u8>> {
        loop {
            if let Some(frame) = self.frames.next_frame().expect("server frames are well formed") {
                return Some(frame);
            }
            let mut chunk = [0u8; 16 << 10];
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.frames.extend(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return None,
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    fn call(&mut self, frame: &[u8]) -> Vec<u8> {
        write_frame(&mut self.stream, frame).expect("write");
        self.recv().expect("reply before close")
    }
}

/// The mixed conversation the reactor must answer exactly as the
/// in-process client does: enrolls, a batch enroll, verifies (one
/// repeated — the cache inline path), a scan, snapshots, and the typed
/// errors (unknown device, no cohort model, undersized cohort).
fn script() -> Vec<Request> {
    let half = BUSES / 2;
    let mut script: Vec<Request> = (0..half)
        .map(|i| Request::Enroll {
            device: SimulatedFleet::device_name(i),
            nonce: 1,
        })
        .collect();
    script.push(Request::EnrollBatch {
        devices: (half..BUSES)
            .map(|i| (SimulatedFleet::device_name(i), 1))
            .collect(),
    });
    for k in 0..8u64 {
        script.push(Request::Verify {
            device: SimulatedFleet::device_name((k % BUSES as u64) as usize),
            nonce: 500 + k,
        });
    }
    // Warm repeat: the reactor answers this from the verdict cache
    // inline; the bytes must not differ from the in-process call.
    script.push(Request::Verify {
        device: SimulatedFleet::device_name(0),
        nonce: 500,
    });
    script.push(Request::MonitorScan {
        device: SimulatedFleet::device_name(1),
        nonce: 42,
    });
    script.push(Request::RegistrySnapshot);
    script.push(Request::Verify {
        device: "bus-404".into(),
        nonce: 7,
    });
    // Cohort path: a scan before any model is a typed error; enrolling
    // the whole fleet installs a model; an undersized re-enroll is
    // rejected without clobbering it; the scan then reports per-board
    // verdicts; an unknown device in a scan is a typed error.
    let cohort: Vec<(String, u64)> = (0..BUSES)
        .map(|i| (SimulatedFleet::device_name(i), 21))
        .collect();
    script.push(Request::IntakeScan {
        devices: cohort.clone(),
    });
    script.push(Request::CohortEnroll {
        devices: cohort.clone(),
    });
    script.push(Request::CohortEnroll {
        devices: cohort[..1].to_vec(),
    });
    script.push(Request::IntakeScan {
        devices: (0..BUSES)
            .map(|i| (SimulatedFleet::device_name(i), 900))
            .collect(),
    });
    script.push(Request::IntakeScan {
        devices: vec![("bus-404".into(), 5)],
    });
    script.push(Request::RegistrySnapshot);
    script
}

#[test]
fn reactor_answers_byte_identically_to_the_in_process_client() {
    // Twin services from the same seed: one behind the reactor, one
    // called in-process.
    let svc_wire = start_service(2);
    let svc_local = start_service(2);
    let server = FleetTcpServer::spawn(svc_wire.client(), "127.0.0.1:0").expect("bind");
    let local = svc_local.client();
    let mut conn = RawConn::connect(server.local_addr());

    let script = script();
    let mut errors = 0;
    for (i, request) in script.iter().enumerate() {
        let id = 1000 + i as u64;
        let got = conn.call(&encode_request_tagged(id, request, None));
        let outcome = local.call(request.clone());
        errors += usize::from(outcome.is_err());
        assert_eq!(
            got,
            encode_tagged_response(id, &outcome),
            "reply {i} ({request:?}) diverged from the in-process client"
        );
    }
    // The script must actually cross the typed-error paths.
    assert!(errors >= 4, "script produced only {errors} typed errors");
    drop(server);
}

#[test]
fn version_one_frames_are_refused_and_the_connection_lives_on() {
    let svc = start_service(2);
    let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind");
    let mut client = PipelinedFleetClient::connect(server.local_addr()).expect("connect");
    client.set_recv_timeout(Some(READ_TIMEOUT)).expect("timeout");
    client
        .call(
            &Request::Enroll {
                device: SimulatedFleet::device_name(0),
                nonce: 1,
            },
            None,
        )
        .expect("enroll");

    // A version-1 frame: version byte, u32 deadline, snapshot tag.
    let mut conn = RawConn::connect(server.local_addr());
    let reply = conn.call(&[1, 0, 0, 0, 0, 4]);
    match decode_event(&reply).expect("decodes") {
        WireEvent::ProtocolError(FleetError::Protocol(msg)) => {
            assert_eq!(msg, "unsupported wire version 1");
        }
        other => panic!("unexpected {other:?}"),
    }
    // The same connection still serves a tagged verify.
    let verify = Request::Verify {
        device: SimulatedFleet::device_name(0),
        nonce: 9,
    };
    match decode_event(&conn.call(&encode_request_tagged(5, &verify, None))).expect("decodes") {
        WireEvent::Reply { id, outcome } => {
            assert_eq!(id, 5);
            assert!(matches!(*outcome, Ok(Response::Verdict { accepted: true, .. })));
        }
        other => panic!("unexpected {other:?}"),
    }
    drop(server);
}

#[test]
fn pipelined_verdicts_are_bitwise_identical_across_worker_counts() {
    // The same 64-deep pipelined batch — duplicates included, so the
    // reactor's coalescing path is on it — must produce byte-identical
    // outcomes whether 1, 2, or 8 workers race on it, and must match a
    // serial blocking client on a twin service.
    let requests: Vec<Request> = (0..64u64)
        .map(|k| Request::Verify {
            device: SimulatedFleet::device_name((k % BUSES as u64) as usize),
            // Every fourth request is a duplicate of the previous one:
            // concurrent identical verifies coalesce in the reactor.
            nonce: 3000 + (k - u64::from(k % 4 == 3)),
        })
        .collect();

    let mut per_worker_count: Vec<Vec<Vec<u8>>> = Vec::new();
    for workers in [1usize, 2, 8] {
        let svc = start_service(workers);
        let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind");
        let mut ctl = PipelinedFleetClient::connect(server.local_addr()).expect("connect");
        for i in 0..BUSES {
            ctl.call(
                &Request::Enroll {
                    device: SimulatedFleet::device_name(i),
                    nonce: 1,
                },
                None,
            )
            .expect("enroll");
        }
        let mut pipe = PipelinedFleetClient::connect(server.local_addr()).expect("connect");
        let batch: Vec<(Request, Option<Duration>)> =
            requests.iter().map(|r| (r.clone(), None)).collect();
        let ids = pipe.send_batch(&batch).expect("send batch");
        let mut replies: Vec<Option<Vec<u8>>> = vec![None; ids.len()];
        for _ in 0..ids.len() {
            match pipe.recv_event().expect("event") {
                WireEvent::Reply { id, outcome } => {
                    let slot = ids.iter().position(|&x| x == id).expect("known id");
                    assert!(replies[slot].is_none(), "duplicate reply for id {id}");
                    replies[slot] = Some(encode_response(&outcome));
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        per_worker_count.push(replies.into_iter().map(|r| r.expect("replied")).collect());
        drop(server);
        drop(svc);
    }
    let reference = &per_worker_count[0];
    for (w, got) in per_worker_count.iter().enumerate().skip(1) {
        for (i, (a, b)) in reference.iter().zip(got).enumerate() {
            assert_eq!(a, b, "request {i} diverged at worker-count index {w}");
        }
    }

    // Serial blocking reference on a twin service: same bits again.
    let svc = start_service(2);
    let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind");
    let mut ctl = PipelinedFleetClient::connect(server.local_addr()).expect("connect");
    for i in 0..BUSES {
        ctl.call(
            &Request::Enroll {
                device: SimulatedFleet::device_name(i),
                nonce: 1,
            },
            None,
        )
        .expect("enroll");
    }
    for (i, request) in requests.iter().enumerate() {
        let outcome = ctl.call(request, None);
        assert_eq!(
            encode_response(&outcome),
            reference[i],
            "blocking reference diverged at request {i}"
        );
    }
}

#[test]
fn garbage_kills_only_the_offending_connection() {
    let svc = start_service(2);
    let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind");
    let mut good = PipelinedFleetClient::connect(server.local_addr()).expect("connect");
    good.set_recv_timeout(Some(READ_TIMEOUT)).expect("timeout");
    good.call(
        &Request::Enroll {
            device: SimulatedFleet::device_name(0),
            nonce: 1,
        },
        None,
    )
    .expect("enroll");

    // A connection announcing an impossible frame length gets a typed
    // error and a close...
    let mut evil = RawConn::connect(server.local_addr());
    evil.stream.write_all(&u32::MAX.to_le_bytes()).expect("write");
    evil.stream.flush().expect("flush");
    let reply = evil.recv().expect("error frame before close");
    match decode_event(&reply).expect("decodes") {
        WireEvent::ProtocolError(err) => {
            assert!(matches!(err, FleetError::Protocol(_)), "{err:?}");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(evil.recv().is_none(), "oversized-length connection must be closed");

    // ...while the well-behaved connection keeps verifying.
    match good
        .call(
            &Request::Verify {
                device: SimulatedFleet::device_name(0),
                nonce: 9,
            },
            None,
        )
        .expect("good connection survives")
    {
        Response::Verdict { accepted, .. } => assert!(accepted),
        other => panic!("unexpected {other:?}"),
    }
    drop(server);
}
