//! The three workloads, and the seeded generators that derive every
//! input the program receives from the workload seed.
//!
//! # Why each workload exists
//!
//! Every answer DIVOT gives costs one fresh iTDR acquisition, so every
//! request below carries a nonce that no other request of the run uses:
//! the verdict cache never serves a timed request.
//!
//! | workload | loads | bypasses |
//! |---|---|---|
//! | `verify_fresh` | `fleet::reactor`, `fleet::wire`, `fleet::service` queue and workers, `fleet::store` reads, `core::itdr` analytic sweep, `core::auth` | `txline::scatter` render (memo always hits after set-up), `cohort::model`, `core::tamper`, `dsp::par` (one device per request), store writes |
//! | `intake_cold` | `txline::scatter` render on every board, `fleet::sim` memo growth, `dsp::par` fan-out inside workers, `cohort::model` attest, `core::itdr`; 16-row wire replies | `fleet::store`, `core::auth`, `core::tamper`, `core::registry` |
//! | `monitor_mixed` | `core::tamper` scans, `core::registry` re-enroll, store and threshold write locks beside reads, `core::auth`, `core::itdr`, `Stats` served inline by the reactor | `txline::scatter` render, `cohort::model`, `dsp::par` |
//!
//! # Predicted per-layer directions
//!
//! A later change names the layer it speeds up; the table says which
//! end-to-end metric should move, and where the prediction is "no
//! change". `setup_s` covers fabrication, service and reactor start,
//! enrollment and the fabrication memo warm-up.
//!
//! | per-layer metric | should move | on |
//! |---|---|---|
//! | `itdr.sweep_us` | `throughput_per_s`, `latency_p50_ms` | mostly `verify_fresh`, `monitor_mixed`; ~¼ of per-board work on `intake_cold` |
//! | `sim.fabricate_us` | `throughput_per_s`, `peak_rss_mb` | `intake_cold`; only `setup_s` elsewhere |
//! | `par.speedup` | `throughput_per_s` | `intake_cold`; nothing on `verify_fresh` |
//! | `cohort.learn_ms` | `setup_s` | `intake_cold` |
//! | `cohort.attest_us` | `throughput_per_s`, slightly | `intake_cold` |
//! | `registry.enroll_us` | `setup_s` everywhere; `latency_p99_ms`, `throughput_per_s` | `monitor_mixed` (enrolls are its slowest ops) |
//! | `tamper.scan_ns`, `auth.verify_ns` | `latency_p50_ms`, by < 1 % | workloads that call them |
//! | `store.read_ns`, `store.write_ns`, `store.lock_hold_p99_ns` | `latency_p99_ms` | `monitor_mixed` |
//! | `service.handoff_us` | `latency_p50_ms` | all |
//! | `service.queue_wait_p50_us`, `service.queue_wait_p99_us` | `latency_p50_ms`, `latency_p99_ms` | all |
//! | `service.sheds`, `service.deadline_misses` | `latency_p99_ms`, `error_rate` | open-loop phases |
//! | `reactor.transport_us`, `reactor.frames_per_wakeup`, `wire.codec_ns`, `wire.bytes_per_op` | `latency_p50_ms`, a few % | `verify_fresh`; more weight on `intake_cold`'s 16-row replies |
//! | `cache.hit_ratio` | nothing: predicted 0 everywhere, so removing the cache moves no end-to-end metric | all |
//! | `loadgen.offered_per_s`, `loadgen.late_p99_ms` | generator health: a late generator makes latency suspect | open-loop phases |
//! | `ledger.residual_frac` | the share of the one-in-flight round trip no timed layer accounts for | all |

use divot_dsp::rng::{mix_seed, DivotRng};
use divot_fleet::{Anomaly, Request, SimulatedFleet};
use divot_txline::attack::Attack;

/// Enrolled devices of `verify_fresh`.
pub const VERIFY_DEVICES: usize = 1024;
/// Enrolled devices of `monitor_mixed`.
pub const MONITOR_DEVICES: usize = 256;
/// Boards in the `intake_cold` cohort the population model learns from.
pub const COHORT_BOARDS: usize = 256;
/// Boards per `IntakeScan` request.
pub const INTAKE_BATCH: usize = 16;
/// Open-loop offered rate of `verify_fresh`, verifies per second. The
/// open loops offer about a third of the capacity the 2-core host
/// delivers in its slow phases (~4,400 verifies/s, ~3,000 mixed ops/s):
/// at 3,000 and 2,000 per second, utilization swung between 40 % and
/// 70 % with the host's speed, and with it the p99 of repeated runs
/// (quartile spread up to 0.35 of the median for `verify_fresh` and 0.74
/// for `monitor_mixed`).
pub const VERIFY_RATE: f64 = 1500.0;
/// Open-loop offered rate of `monitor_mixed`, ops per second.
pub const MONITOR_RATE: f64 = 1000.0;
/// `monitor_mixed` op shares: scans, then verifies; the rest re-enroll.
pub const SCAN_SHARE: f64 = 0.80;
/// See [`SCAN_SHARE`].
pub const VERIFY_SHARE: f64 = 0.15;
/// Interval of the `Stats` probe `monitor_mixed` sends, as `fleet_top`
/// polls.
pub const STATS_EVERY_MS: u64 = 100;

/// Op indices of the open-loop phase start here, so its requests never
/// share a nonce with the closed-loop phase before it.
pub const OPEN_BASE: u64 = 1 << 40;
/// Nonce offset of the benchmark's own per-layer timing loops.
pub const LAYER_BASE: u64 = 1 << 41;
/// Nonce offset of set-up enrollment.
const ENROLL_BASE: u64 = 1 << 42;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh-nonce verifies over 1,024 enrolled devices.
    VerifyFresh,
    /// Golden-free intake scans of never-seen boards.
    IntakeCold,
    /// Runtime monitoring: scans, verifies and re-enrolls.
    MonitorMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Self::VerifyFresh, Self::IntakeCold, Self::MonitorMixed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::VerifyFresh => "verify_fresh",
            Self::IntakeCold => "intake_cold",
            Self::MonitorMixed => "monitor_mixed",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Enrolled devices (`verify_fresh`, `monitor_mixed`) or cohort
    /// boards (`intake_cold`) set up before the first timed request.
    pub fn enrolled(self) -> usize {
        match self {
            Self::VerifyFresh => VERIFY_DEVICES,
            Self::IntakeCold => COHORT_BOARDS,
            Self::MonitorMixed => MONITOR_DEVICES,
        }
    }

    /// The open-loop offered rate, if the workload has an open-loop
    /// phase.
    pub fn open_rate(self) -> Option<f64> {
        match self {
            Self::VerifyFresh => Some(VERIFY_RATE),
            Self::IntakeCold => None,
            Self::MonitorMixed => Some(MONITOR_RATE),
        }
    }
}

/// Every seed of a run, derived from the workload seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// The `--seed` argument.
    pub workload: u64,
    /// Fixes board fabrication and where anomalies are planted.
    pub fleet: u64,
    nonce_base: u64,
    ops: u64,
    schedule: u64,
}

impl Seeds {
    /// Derive every stream from the workload seed.
    pub fn derive(workload: u64) -> Self {
        Self {
            workload,
            fleet: mix_seed(workload, 0xF1EE_7000),
            nonce_base: mix_seed(workload, 0x0A0C_E000),
            ops: mix_seed(workload, 0x0095_0000),
            schedule: mix_seed(workload, 0x5C4E_D000),
        }
    }

    /// The nonce of op `index`. Distinct indices give distinct nonces,
    /// so no `(device, nonce)` pair repeats within a run.
    pub fn nonce(&self, index: u64) -> u64 {
        self.nonce_base.wrapping_add(index)
    }
}

/// Kind of one generated op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `Request::Verify`.
    Verify,
    /// `Request::MonitorScan`.
    Scan,
    /// `Request::Enroll` of an already enrolled device.
    Enroll,
}

/// One generated device op: a pure function of `(seeds, workload,
/// index)`, so the list is the same however far a run gets into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    /// The op kind.
    pub kind: OpKind,
    /// Device index, uniform over the enrolled devices.
    pub device: usize,
    /// Fresh nonce.
    pub nonce: u64,
}

impl Op {
    /// Op `index` of `workload` (`verify_fresh` or `monitor_mixed`).
    pub fn generate(seeds: &Seeds, workload: Workload, index: u64) -> Self {
        let mut rng = DivotRng::derive(seeds.ops, index);
        let device = rng.index(workload.enrolled());
        let kind = match workload {
            Workload::VerifyFresh => OpKind::Verify,
            Workload::MonitorMixed => {
                let u = rng.uniform();
                if u < SCAN_SHARE {
                    OpKind::Scan
                } else if u < SCAN_SHARE + VERIFY_SHARE {
                    OpKind::Verify
                } else {
                    OpKind::Enroll
                }
            }
            Workload::IntakeCold => panic!("intake_cold sends board batches, not device ops"),
        };
        Self {
            kind,
            device,
            nonce: seeds.nonce(index),
        }
    }

    /// The wire request of this op.
    pub fn request(&self) -> Request {
        let device = SimulatedFleet::device_name(self.device);
        let nonce = self.nonce;
        match self.kind {
            OpKind::Verify => Request::Verify { device, nonce },
            OpKind::Scan => Request::MonitorScan { device, nonce },
            OpKind::Enroll => Request::Enroll { device, nonce },
        }
    }
}

/// Open-loop due times, in seconds from the phase start: a Poisson
/// process of `rate` arrivals per second, `n` arrivals long.
pub fn poisson_schedule(seeds: &Seeds, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = DivotRng::derive(seeds.schedule, 0);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            // 1 − U lies in (0, 1], so the log is finite.
            t += -(1.0 - rng.uniform()).ln() / rate;
            t
        })
        .collect()
}

/// The set-up enrollment rows: device `i` with its own nonce.
pub fn enroll_rows(seeds: &Seeds, devices: usize) -> Vec<(String, u64)> {
    (0..devices)
        .map(|i| {
            (
                SimulatedFleet::device_name(i),
                seeds.nonce(ENROLL_BASE + i as u64),
            )
        })
        .collect()
}

/// Board index of row `row` of intake batch `batch`: batches walk the
/// never-seen boards after the cohort, so every board is a first touch.
pub fn intake_board(batch: u64, row: usize) -> usize {
    COHORT_BOARDS + batch as usize * INTAKE_BATCH + row
}

/// Intake batch `batch`: 16 never-seen boards, each with a fresh nonce.
pub fn intake_rows(seeds: &Seeds, batch: u64) -> Vec<(String, u64)> {
    (0..INTAKE_BATCH)
        .map(|row| {
            let board = intake_board(batch, row);
            (
                SimulatedFleet::device_name(board),
                seeds.nonce(board as u64),
            )
        })
        .collect()
}

/// Ground truth planted on the intake boards of `batches` batches: each
/// batch holds exactly one counterfeit-lot board and one wire-tapped
/// board (fixed shares of 1/16 each), at seeded positions. Scars, probes
/// and trojans are left out: they sit below board-to-board fabrication
/// spread, where no golden-free model can see them (AUC ≈ 0.55).
pub fn intake_anomalies(seeds: &Seeds, batches: u64) -> Vec<(usize, Anomaly)> {
    let mut out = Vec::with_capacity(2 * batches as usize);
    for batch in 0..batches {
        let mut rng = DivotRng::derive(seeds.fleet, batch);
        let counterfeit = rng.index(INTAKE_BATCH);
        let tap = (counterfeit + 1 + rng.index(INTAKE_BATCH - 1)) % INTAKE_BATCH;
        out.push((intake_board(batch, counterfeit), Anomaly::Counterfeit));
        out.push((
            intake_board(batch, tap),
            Anomaly::Tampered(Attack::paper_wiretap()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const N: u64 = 20_000;

    fn ops(seeds: &Seeds, w: Workload, base: u64) -> Vec<Op> {
        (base..base + N)
            .map(|i| Op::generate(seeds, w, i))
            .collect()
    }

    #[test]
    fn same_seed_same_requests_and_schedule() {
        for w in [Workload::VerifyFresh, Workload::MonitorMixed] {
            let a = Seeds::derive(7);
            assert_eq!(a, Seeds::derive(7));
            assert_eq!(ops(&a, w, 0), ops(&Seeds::derive(7), w, 0));
            assert_ne!(ops(&a, w, 0), ops(&Seeds::derive(8), w, 0));
        }
        let s = poisson_schedule(&Seeds::derive(7), VERIFY_RATE, 5000);
        assert_eq!(s, poisson_schedule(&Seeds::derive(7), VERIFY_RATE, 5000));
        assert_ne!(s, poisson_schedule(&Seeds::derive(8), VERIFY_RATE, 5000));
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            intake_anomalies(&Seeds::derive(7), 64),
            intake_anomalies(&Seeds::derive(7), 64)
        );
    }

    #[test]
    fn poisson_rate_is_the_offered_rate() {
        let n = 30_000;
        let s = poisson_schedule(&Seeds::derive(3), MONITOR_RATE, n);
        let rate = n as f64 / s[n - 1];
        assert!((rate / MONITOR_RATE - 1.0).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn no_device_nonce_pair_repeats_within_a_run() {
        for w in [Workload::VerifyFresh, Workload::MonitorMixed] {
            let seeds = Seeds::derive(11);
            let mut seen = HashSet::new();
            let rows = ops(&seeds, w, 0)
                .into_iter()
                .chain(ops(&seeds, w, OPEN_BASE))
                .map(|op| (op.device, op.nonce))
                .chain(
                    enroll_rows(&seeds, w.enrolled())
                        .into_iter()
                        .enumerate()
                        .map(|(i, (_, nonce))| (i, nonce)),
                );
            for row in rows {
                assert!(seen.insert(row), "{row:?} repeats in {}", w.name());
            }
        }
        let seeds = Seeds::derive(11);
        let mut seen = HashSet::new();
        for (name, nonce) in enroll_rows(&seeds, COHORT_BOARDS)
            .into_iter()
            .chain((0..1000).flat_map(|b| intake_rows(&seeds, b)))
        {
            assert!(seen.insert((name.clone(), nonce)), "{name} repeats");
        }
    }

    #[test]
    fn op_mix_lands_within_tolerance() {
        let all = ops(&Seeds::derive(5), Workload::MonitorMixed, 0);
        let share = |k: OpKind| all.iter().filter(|o| o.kind == k).count() as f64 / N as f64;
        assert!((share(OpKind::Scan) - SCAN_SHARE).abs() < 0.01);
        assert!((share(OpKind::Verify) - VERIFY_SHARE).abs() < 0.01);
        assert!((share(OpKind::Enroll) - (1.0 - SCAN_SHARE - VERIFY_SHARE)).abs() < 0.01);
        // Devices are uniform: every device is hit, none more than
        // twice its fair share.
        let mut hits = vec![0usize; MONITOR_DEVICES];
        for op in &all {
            hits[op.device] += 1;
        }
        let fair = N as usize / MONITOR_DEVICES;
        assert!(hits.iter().all(|&h| h > 0 && h < 2 * fair), "{hits:?}");
        let verifies = ops(&Seeds::derive(5), Workload::VerifyFresh, 0);
        assert!(verifies.iter().all(|o| o.kind == OpKind::Verify));
    }

    #[test]
    fn every_intake_batch_plants_one_counterfeit_and_one_tap() {
        let planted = intake_anomalies(&Seeds::derive(9), 200);
        for batch in 0..200 {
            let rows: Vec<_> = planted
                .iter()
                .filter(|(b, _)| (intake_board(batch, 0)..intake_board(batch + 1, 0)).contains(b))
                .collect();
            assert_eq!(rows.len(), 2);
            assert_ne!(rows[0].0, rows[1].0);
            assert_eq!(rows[0].1, Anomaly::Counterfeit);
        }
    }
}
