//! Golden pin of the fleet's acquisition bits.
//!
//! The analytic sweep behind every verify, scan and enroll is an
//! optimized kernel (batched `erfc`, prepared binomial draws, a trimmed
//! response memo). Its contract is that it changes *how fast* the
//! answer arrives and never a single bit of it. This test folds about
//! 300 acquisitions — runtime acquisitions (the verify/scan path, solo
//! and batched) and enrollments (both bus ends) on clean, counterfeit,
//! tapped, scarred and probed devices — into one FNV-1a digest of their
//! sample bits and pins it to the value the straightforward per-level
//! scalar kernel produced. Any drift in the CDF, the quadrature sum, the
//! binomial stream or the memoized response shows up here.

use divot_core::exec::ExecPolicy;
use divot_dsp::waveform::Waveform;
use divot_fleet::{Anomaly, FleetSimConfig, SimulatedFleet};
use divot_txline::attack::Attack;

/// The digest computed with the per-level scalar trip-probability
/// kernel, before the batched law kernel existed.
const GOLDEN: u64 = 0x2892_63ad_5d6d_3166;

/// FNV-1a over the bit patterns of every sample, plus a length tag per
/// waveform so a truncated waveform cannot alias a longer one.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn waveform(&mut self, wf: &Waveform) {
        self.word(wf.len() as u64);
        self.word(wf.t0().to_bits());
        self.word(wf.dt().to_bits());
        for s in wf.samples() {
            self.word(s.to_bits());
        }
    }
}

fn fleet() -> SimulatedFleet {
    SimulatedFleet::new(FleetSimConfig::fast(10, 0x60_1DE4).with_anomalies(vec![
        (1, Anomaly::Counterfeit),
        (3, Anomaly::Tampered(Attack::paper_wiretap())),
        (6, Anomaly::Tampered(Attack::SolderScar { position: 0.35 })),
        (8, Anomaly::Tampered(Attack::paper_magnetic_probe())),
    ]))
}

#[test]
fn acquisition_digest_matches_the_scalar_kernel() {
    let f = fleet();
    let mut digest = Digest(0xCBF2_9CE4_8422_2325);
    let mut acquisitions = 0usize;
    for i in 0..f.device_count() {
        let name = SimulatedFleet::device_name(i);
        // Runtime acquisitions: what a Verify or MonitorScan decides on.
        for k in 0..24u64 {
            let nonce = (i as u64) << 32 | k.wrapping_mul(0x9E37_79B9);
            digest.waveform(&f.acquire(&name, nonce).expect("device exists"));
            acquisitions += 1;
        }
        // Enrollments: both bus ends, each an 8-measurement average.
        for nonce in [11u64, 0xE4_0011 + i as u64] {
            let pairing = f.enroll(&name, nonce).expect("device exists");
            digest.waveform(pairing.master.iip());
            digest.waveform(pairing.slave.iip());
            acquisitions += 2;
        }
    }
    // The batched paths (cohort enroll / intake) must land on the same
    // bits as the solo ones they fan out.
    let items: Vec<(String, u64)> = (0..f.device_count())
        .map(|i| (SimulatedFleet::device_name(i), 0xBA7C_0000 + i as u64))
        .collect();
    for wf in f
        .acquire_batch(&items, ExecPolicy::Serial)
        .expect("all exist")
    {
        digest.waveform(&wf);
        acquisitions += 1;
    }
    for pairing in f
        .enroll_batch(&items[..5], ExecPolicy::Serial)
        .expect("all exist")
    {
        digest.waveform(pairing.master.iip());
        digest.waveform(pairing.slave.iip());
        acquisitions += 2;
    }
    assert!(
        acquisitions >= 300,
        "only {acquisitions} acquisitions digested"
    );
    assert_eq!(
        digest.0, GOLDEN,
        "acquisition digest drifted: {:#018x} (pinned {GOLDEN:#018x})",
        digest.0
    );
}
