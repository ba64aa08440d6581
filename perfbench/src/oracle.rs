//! The output oracle: the benchmark's own [`SimulatedFleet`], built from
//! the service's configuration, recomputes replies after the timed
//! phases. A reply matches when every bit of its similarity, error or
//! score equals the recomputation.

use divot_cohort::PopulationModel;
use divot_core::auth::Authenticator;
use divot_core::exec::ExecPolicy;
use divot_core::registry::Pairing;
use divot_core::tamper::{TamperDetector, TamperPolicy};
use divot_dsp::rng::mix_seed;
use divot_dsp::waveform::Waveform;
use divot_fleet::{FleetConfig, FleetSimConfig, IntakeReport, Response, SimulatedFleet};
use std::collections::HashMap;

/// Nonce domain of the four clean acquisitions the service calibrates a
/// device's tamper threshold from at enrollment (`Request::Enroll` in
/// `fleet::service`).
const CLEAN_DOMAIN: u64 = 0xCA11_B000;

/// One enrollment as the service stores it.
#[derive(Debug)]
pub struct Enrollment {
    /// The stored pairing.
    pub pairing: Pairing,
    /// The calibrated tamper threshold.
    pub threshold: f64,
}

/// The recomputing oracle.
#[derive(Debug)]
pub struct Oracle {
    sim: SimulatedFleet,
    config: FleetConfig,
    authenticator: Authenticator,
    enrollments: HashMap<(usize, u64), Enrollment>,
}

impl Oracle {
    /// An oracle over a fleet fabricated from `sim`, judged by the
    /// service configuration `config`.
    pub fn new(sim: FleetSimConfig, config: FleetConfig) -> Self {
        Self {
            sim: SimulatedFleet::new(sim),
            authenticator: Authenticator::new(config.auth),
            config,
            enrollments: HashMap::new(),
        }
    }

    /// The oracle's fleet.
    pub fn sim(&self) -> &SimulatedFleet {
        &self.sim
    }

    /// The service configuration the oracle judges by.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The authenticator verifies are decided by.
    pub fn authenticator(&self) -> &Authenticator {
        &self.authenticator
    }

    /// Device `device`'s enrollment under `nonce`, computed as the
    /// service computes it: the pairing, then a tamper threshold
    /// calibrated from four clean acquisitions whose nonces derive from
    /// the enroll nonce.
    pub fn enrollment(&mut self, device: usize, nonce: u64) -> &Enrollment {
        let (sim, config) = (&self.sim, &self.config);
        self.enrollments.entry((device, nonce)).or_insert_with(|| {
            let name = SimulatedFleet::device_name(device);
            let pairing = sim.enroll(&name, nonce).expect("device exists");
            let cleans: Vec<Waveform> = (1..=4)
                .map(|k| {
                    sim.acquire(&name, mix_seed(nonce, CLEAN_DOMAIN | k))
                        .expect("device exists")
                })
                .collect();
            let threshold = TamperDetector::calibrated(
                config.tamper,
                pairing.master.iip(),
                &cleans,
                config.tamper_margin,
            )
            .policy()
            .threshold;
            Enrollment { pairing, threshold }
        })
    }

    /// Whether `reply` is the verify of `(device, nonce)` against one of
    /// the enrollments `candidates` (enroll nonces that may have been in
    /// force while the request was served).
    pub fn verify_matches(
        &mut self,
        device: usize,
        nonce: u64,
        candidates: &[u64],
        reply: &Response,
    ) -> bool {
        let Response::Verdict {
            device: name,
            accepted,
            similarity,
        } = reply
        else {
            return false;
        };
        if *name != SimulatedFleet::device_name(device) {
            return false;
        }
        let measured = self.sim.acquire(name, nonce).expect("device exists");
        for &e in candidates {
            self.enrollment(device, e);
        }
        candidates.iter().any(|&e| {
            let pairing = &self.enrollments[&(device, e)].pairing;
            let d = self.authenticator.verify(&pairing.master, &measured);
            d.is_accept() == *accepted && d.similarity().to_bits() == similarity.to_bits()
        })
    }

    /// Whether `reply` is the tamper scan of `(device, nonce)` against
    /// one of the candidate enrollments. The service reads the threshold
    /// and the pairing under different locks, so a scan racing a
    /// re-enroll may pair one enrollment's threshold with another's
    /// reference; every combination of the candidates is accepted.
    pub fn scan_matches(
        &mut self,
        device: usize,
        nonce: u64,
        candidates: &[u64],
        reply: &Response,
    ) -> bool {
        let Response::Scan {
            device: name,
            detected,
            max_error,
            location_m,
        } = reply
        else {
            return false;
        };
        if *name != SimulatedFleet::device_name(device) {
            return false;
        }
        let measured = self.sim.acquire(name, nonce).expect("device exists");
        for &e in candidates {
            self.enrollment(device, e);
        }
        let policy = self.config.tamper;
        candidates.iter().any(|&p| {
            candidates.iter().any(|&t| {
                let threshold = self.enrollments[&(device, t)].threshold;
                let reference = self.enrollments[&(device, p)].pairing.master.iip();
                let report = TamperDetector::new(TamperPolicy {
                    threshold,
                    ..policy
                })
                .scan(reference, &measured);
                report.detected == *detected
                    && report.max_error.to_bits() == max_error.to_bits()
                    && report.location.map(|m| m.0.to_bits()) == location_m.map(f64::to_bits)
            })
        })
    }

    /// Learn the population model from the cohort `rows`, as
    /// `Request::CohortEnroll` does, and return it with the acquired
    /// fingerprints.
    pub fn learn(&self, rows: &[(String, u64)]) -> (PopulationModel, Vec<Waveform>) {
        let fingerprints = self
            .sim
            .acquire_batch(rows, ExecPolicy::auto())
            .expect("cohort devices exist");
        let views: Vec<&[f64]> = fingerprints.iter().map(|w| w.samples()).collect();
        let model = PopulationModel::learn(&views, self.config.cohort).expect("cohort learns");
        (model, fingerprints)
    }

    /// Whether `reply` describes `model`.
    pub fn model_matches(model: &PopulationModel, reply: &Response) -> bool {
        matches!(reply, Response::CohortModel { cohort_size, excluded, segments }
            if *cohort_size as usize == model.members().len()
                && *excluded as usize == model.excluded().len()
                && *segments as usize == model.segments())
    }

    /// Whether `reports` are exactly the intake reports `model` gives
    /// for `rows`.
    pub fn intake_matches(
        &self,
        model: &PopulationModel,
        rows: &[(String, u64)],
        reports: &[IntakeReport],
    ) -> bool {
        let fingerprints = self
            .sim
            .acquire_batch(rows, ExecPolicy::auto())
            .expect("intake boards exist");
        reports.len() == rows.len()
            && reports
                .iter()
                .zip(rows)
                .zip(&fingerprints)
                .all(|((got, (name, _)), w)| {
                    let (verdict, score) = model.attest(w.samples());
                    let want = IntakeReport {
                        device: name.clone(),
                        verdict,
                        score: score.score,
                        similarity: score.similarity,
                        max_z: score.max_z,
                        deviant_segments: score.deviant_segments as u32,
                        worst_segment: score.worst_segment as u32,
                    };
                    same_report(got, &want)
                })
    }
}

fn same_report(a: &IntakeReport, b: &IntakeReport) -> bool {
    a.device == b.device
        && a.verdict == b.verdict
        && a.score.to_bits() == b.score.to_bits()
        && a.similarity.to_bits() == b.similarity.to_bits()
        && a.max_z.to_bits() == b.max_z.to_bits()
        && a.deviant_segments == b.deviant_segments
        && a.worst_segment == b.worst_segment
}
