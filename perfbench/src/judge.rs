//! Judging replies. Each reply is digested as it arrives: checked
//! against the request it answers and reduced to what the run counts. A
//! seeded sample is kept whole, and after the timed phases the oracle
//! recomputes it.

use crate::loadgen::{Outcome, Phase, Record, STATS_KEY};
use crate::oracle::Oracle;
use crate::workload::{
    enroll_rows, intake_board, intake_rows, Op, OpKind, Seeds, Workload, COHORT_BOARDS,
};
use divot_dsp::rng::mix_seed;
use divot_fleet::{FleetError, FleetStore, IntakeReport, Response, ShedReason, SimulatedFleet};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// A reply, reduced to what the run keeps of it.
#[derive(Debug)]
pub enum Reply {
    /// A verify's decision.
    Verdict {
        /// Whether the device was accepted.
        accepted: bool,
        /// Its similarity score.
        similarity: f64,
    },
    /// A tamper scan's decision.
    Scan {
        /// Whether tampering was reported.
        detected: bool,
    },
    /// A re-enroll landed on the device's shard.
    Enrolled,
    /// A `Stats` probe was answered.
    Stats,
    /// An intake batch's reports, whose names match the request.
    Intake(Box<[IntakeReport]>),
    /// A sampled reply, kept whole for the oracle.
    Kept(Box<Response>),
    /// A typed error, by kind.
    Failed(&'static str),
    /// A reply that does not answer its request.
    Wrong,
}

/// Digests replies of one run.
#[derive(Debug)]
pub struct Judge {
    workload: Workload,
    seeds: Seeds,
    shards: FleetStore,
}

impl Judge {
    /// A judge of `workload` under `seeds`, for a service with `shards`
    /// store shards.
    pub fn new(workload: Workload, seeds: Seeds, shards: usize) -> Self {
        Self {
            workload,
            seeds,
            shards: FleetStore::new(shards),
        }
    }

    /// Whether the oracle recomputes request `key`: a seeded pick of
    /// about one in `stride`, about 250 replies per run.
    pub fn sampled(&self, key: u64) -> bool {
        let stride = match self.workload {
            Workload::VerifyFresh => 256,
            Workload::IntakeCold => 64,
            Workload::MonitorMixed => 192,
        };
        mix_seed(self.seeds.workload ^ 0x0AC1_E000, key).is_multiple_of(stride)
    }

    /// Reduce the reply to request `key`.
    pub fn digest(&self, key: u64, outcome: Outcome) -> Reply {
        let response = match outcome {
            Ok(response) => response,
            Err(FleetError::Overloaded { reason, .. }) => {
                return Reply::Failed(match reason {
                    ShedReason::QueueFull => "shed_queue_full",
                    ShedReason::FairShare => "shed_fair_share",
                })
            }
            Err(FleetError::DeadlineExceeded) => return Reply::Failed("deadline"),
            Err(_) => return Reply::Failed("other_error"),
        };
        if key == STATS_KEY {
            return match response {
                Response::StatsSnapshot { .. } => Reply::Stats,
                _ => Reply::Wrong,
            };
        }
        if self.workload == Workload::IntakeCold {
            return match response {
                Response::Intake { reports }
                    if reports
                        .iter()
                        .map(|r| &r.device)
                        .eq(intake_rows(&self.seeds, key).iter().map(|(name, _)| name)) =>
                {
                    Reply::Intake(reports.into_boxed_slice())
                }
                _ => Reply::Wrong,
            };
        }
        let op = Op::generate(&self.seeds, self.workload, key);
        let name = SimulatedFleet::device_name(op.device);
        match (op.kind, response) {
            (OpKind::Enroll, Response::Enrolled { device, shard })
                if device == name && shard as usize == self.shards.shard_of(&name) =>
            {
                Reply::Enrolled
            }
            (OpKind::Verify | OpKind::Scan, response) if self.sampled(key) => {
                Reply::Kept(Box::new(response))
            }
            (
                OpKind::Verify,
                Response::Verdict {
                    device,
                    accepted,
                    similarity,
                },
            ) if device == name => Reply::Verdict {
                accepted,
                similarity,
            },
            (
                OpKind::Scan,
                Response::Scan {
                    device, detected, ..
                },
            ) if device == name => Reply::Scan { detected },
            _ => Reply::Wrong,
        }
    }
}

/// What the replies of a run add up to.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests answered, `Stats` probes included.
    pub attempted: u64,
    /// Typed errors, sheds and rejected genuine verifies.
    pub failed: u64,
    /// Typed errors by kind.
    pub errors: BTreeMap<&'static str, u64>,
    /// Replies that do not answer their request or differ from the
    /// oracle.
    pub mismatched: u64,
    /// Verifies of genuine devices that were rejected.
    pub false_rejects: u64,
    /// `similarity − threshold` of every verify.
    pub margins: Vec<f64>,
    /// Tamper scans served; every device is clean.
    pub scans: u64,
    /// Clean scans that reported `detected`, and on how many devices.
    pub alarms: u64,
    /// See [`alarms`](Self::alarms).
    pub alarm_devices: HashSet<usize>,
    /// Intake scores of genuine boards.
    pub genuine_scores: Vec<f64>,
    /// Intake scores of counterfeit-lot and wire-tapped boards.
    pub flagged_scores: Vec<f64>,
    /// Replies the oracle recomputed (intake: boards).
    pub checked: u64,
}

/// Enroll nonces of one device that may have been in force while a
/// request sent at `sent` and answered at `done` was served: every
/// enrollment that started before the request finished and was not
/// certainly replaced before it started.
fn candidates(history: &[(u64, Instant, Instant)], sent: Instant, done: Instant) -> Vec<u64> {
    history
        .iter()
        .filter(|(_, s, d)| *s < done && !history.iter().any(|(_, s2, d2)| *s2 > *d && *d2 < sent))
        .map(|(n, ..)| *n)
        .collect()
}

impl Tally {
    /// Count every reply of `phases` and have the oracle recompute the
    /// sampled ones. `ready` is when set-up enrollment finished;
    /// `cohort` is intake's `CohortEnroll` reply.
    pub fn count(
        judge: &Judge,
        phases: &[&Phase<Reply>],
        ready: Instant,
        cohort: Option<&Response>,
        oracle: &mut Oracle,
    ) -> Self {
        let mut t = Self::default();
        let (w, seeds) = (judge.workload, &judge.seeds);
        let records = || {
            phases
                .iter()
                .flat_map(|p| p.records.iter().map(move |r| (*p, r)))
        };
        let threshold = oracle.config().auth.threshold;
        let model = (w == Workload::IntakeCold).then(|| {
            let (model, _) = oracle.learn(&enroll_rows(seeds, COHORT_BOARDS));
            if !cohort.is_some_and(|r| Oracle::model_matches(&model, r)) {
                t.mismatched += 1;
            }
            model
        });
        let planted: HashSet<usize> = oracle
            .sim()
            .config()
            .anomalies
            .iter()
            .map(|(i, _)| *i)
            .collect();

        // Enrollment history per device: set-up, then every served
        // re-enroll, as instants.
        let mut history: HashMap<usize, Vec<(u64, Instant, Instant)>> = HashMap::new();
        if w != Workload::IntakeCold {
            for (i, (_, nonce)) in enroll_rows(seeds, w.enrolled()).into_iter().enumerate() {
                history.insert(i, vec![(nonce, ready, ready)]);
            }
            for (phase, r) in records() {
                if matches!(r.reply, Reply::Enrolled) {
                    let op = Op::generate(seeds, w, r.key);
                    history.get_mut(&op.device).expect("enrolled device").push((
                        op.nonce,
                        phase.at(r.sent),
                        phase.at(r.done),
                    ));
                }
            }
        }

        for (phase, r) in records() {
            t.attempted += 1;
            match &r.reply {
                Reply::Failed(kind) => {
                    t.failed += 1;
                    *t.errors.entry(kind).or_default() += 1;
                }
                Reply::Wrong => t.mismatched += 1,
                Reply::Stats | Reply::Enrolled => {}
                Reply::Verdict {
                    accepted,
                    similarity,
                } => t.verdict(*accepted, *similarity, threshold),
                Reply::Scan { detected } => t.scan(*detected, Op::generate(seeds, w, r.key).device),
                Reply::Kept(response) => {
                    let op = Op::generate(seeds, w, r.key);
                    let c = candidates(&history[&op.device], phase.at(r.sent), phase.at(r.done));
                    t.checked += 1;
                    let matches = match (op.kind, response.as_ref()) {
                        (
                            OpKind::Verify,
                            Response::Verdict {
                                accepted,
                                similarity,
                                ..
                            },
                        ) => {
                            t.verdict(*accepted, *similarity, threshold);
                            oracle.verify_matches(op.device, op.nonce, &c, response)
                        }
                        (OpKind::Scan, Response::Scan { detected, .. }) => {
                            t.scan(*detected, op.device);
                            oracle.scan_matches(op.device, op.nonce, &c, response)
                        }
                        _ => false,
                    };
                    if !matches {
                        t.mismatched += 1;
                    }
                }
                Reply::Intake(reports) => {
                    for (row, report) in reports.iter().enumerate() {
                        if planted.contains(&intake_board(r.key, row)) {
                            t.flagged_scores.push(report.score);
                        } else {
                            t.genuine_scores.push(report.score);
                        }
                    }
                    if judge.sampled(r.key) {
                        t.checked += reports.len() as u64;
                        let model = model.as_ref().expect("intake learns a model");
                        if !oracle.intake_matches(model, &intake_rows(seeds, r.key), reports) {
                            t.mismatched += 1;
                        }
                    }
                }
            }
        }
        t
    }

    fn verdict(&mut self, accepted: bool, similarity: f64, threshold: f64) {
        self.margins.push(similarity - threshold);
        if !accepted {
            self.false_rejects += 1;
            self.failed += 1;
        }
    }

    fn scan(&mut self, detected: bool, device: usize) {
        self.scans += 1;
        if detected {
            self.alarms += 1;
            self.alarm_devices.insert(device);
        }
    }
}

/// The records of `phase` that are not `Stats` probes.
pub fn ops(phase: &Phase<Reply>) -> impl Iterator<Item = &Record<Reply>> {
    phase.records.iter().filter(|r| r.key != STATS_KEY)
}
