//! Criterion benchmark: full iTDR measurements (the per-authentication
//! cost), at the paper configuration and the fast test configuration.
//!
//! The `itdr/acq_paper_full` group pits the per-trial acquisition engine
//! ([`AcqMode::Trial`]) against the closed-form + binomial fast path
//! ([`AcqMode::Analytic`]) at the paper-scale 341-point × 420-repetition
//! configuration, under both execution policies. The Analytic/Trial ratio
//! is published as `metric:` lines and, when `CRITERION_JSON` is set (see
//! `just bench-itdr`), into the `metrics` section of `BENCH_itdr.json`.
//!
//! Two per-layer groups isolate the fleet's analytic sweep:
//! `itdr/fleet_acquire` is one verify/scan acquisition (4 averaged
//! measurements on a memoized, pre-seeded channel), and `itdr/std_cdf`
//! times the comparator-CDF evaluations of one such acquisition, scalar
//! against batched.

use criterion::{criterion_group, criterion_main, Criterion};
use divot_analog::frontend::FrontEndConfig;
use divot_core::channel::BusChannel;
use divot_core::exec::ExecPolicy;
use divot_core::itdr::{AcqMode, Itdr, ItdrConfig};
use divot_dsp::gaussian::{std_cdf, std_cdf_batch};
use divot_dsp::quadrature::GaussHermite;
use divot_fleet::{FleetSimConfig, SimulatedFleet};
use divot_txline::board::{Board, BoardConfig};
use std::hint::black_box;

fn bench_measure(c: &mut Criterion) {
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 5);
    let mut group = c.benchmark_group("itdr/measure");
    group.sample_size(20);
    for (name, cfg) in [("fast", ItdrConfig::fast()), ("paper", ItdrConfig::paper())] {
        let mut ch = BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 5);
        let itdr = Itdr::new(cfg);
        // Warm the response and table caches once (real systems do too).
        let _ = itdr.measure(&mut ch);
        group.bench_function(name, |b| b.iter(|| black_box(itdr.measure(&mut ch))));
    }
    group.finish();
}

fn bench_enroll(c: &mut Criterion) {
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 5);
    let mut ch = BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 5);
    let itdr = Itdr::new(ItdrConfig::fast());
    let _ = itdr.measure(&mut ch);
    let mut group = c.benchmark_group("itdr/enroll");
    group.sample_size(10);
    group.bench_function("enroll_x8", |b| b.iter(|| black_box(itdr.enroll(&mut ch, 8))));
    group.finish();
}

/// Paper-configuration enrollment under the batched acquisition engine:
/// the response cache amortizes the bounce-lattice simulation across the
/// averaged measurements (`x8_cached` vs `x8_resimulated`, the pre-cache
/// per-measurement cost), and the serial/parallel schedules produce
/// bitwise-identical fingerprints (`x8_serial` vs `x8_parallel`; the
/// parallel win scales with available cores).
fn bench_enroll_paper(c: &mut Criterion) {
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 5);
    let itdr = Itdr::new(ItdrConfig::paper());
    let mut ch = BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 5);
    let _ = itdr.measure(&mut ch);
    let mut group = c.benchmark_group("itdr/enroll_paper");
    group.sample_size(10);
    group.bench_function("x8_cached", |b| b.iter(|| black_box(itdr.enroll(&mut ch, 8))));
    group.bench_function("x8_resimulated", |b| {
        b.iter(|| {
            for _ in 0..8 {
                ch.invalidate_response_cache();
                black_box(itdr.measure(&mut ch));
            }
        })
    });
    group.bench_function("x8_serial", |b| {
        b.iter(|| black_box(itdr.enroll_with(&mut ch, 8, ExecPolicy::Serial)))
    });
    group.bench_function("x8_parallel", |b| {
        b.iter(|| black_box(itdr.enroll_with(&mut ch, 8, ExecPolicy::Parallel)))
    });
    group.finish();
    // The cache-effectiveness line EXPERIMENTS.md quotes: hits dominate,
    // engine_runs stays tiny, and a static-environment workload records
    // zero evictions.
    println!("cache-stats: itdr/enroll_paper ... {}", ch.cache_stats());
}

/// Trial vs Analytic at the paper-scale configuration (341 ETS points ×
/// 420 repetitions — the acquisition grid of the paper's full-resolution
/// instrument), each under both execution policies. The serial pair is the
/// honest single-core comparison; the parallel pair shows the fast path
/// keeps its lead when the per-point engine fans out.
fn bench_acq_paper_full(c: &mut Criterion) {
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 5);
    let mut group = c.benchmark_group("itdr/acq_paper_full");
    group.sample_size(10);
    for (mode_name, mode) in [("trial", AcqMode::Trial), ("analytic", AcqMode::Analytic)] {
        let itdr = Itdr::new(ItdrConfig::paper_full().with_acq_mode(mode));
        let mut ch = BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 5);
        let _ = itdr.measure(&mut ch);
        for (policy_name, policy) in [
            ("serial", ExecPolicy::Serial),
            ("parallel", ExecPolicy::Parallel),
        ] {
            group.bench_function(format!("{mode_name}_{policy_name}"), |b| {
                b.iter(|| black_box(itdr.measure_with(&mut ch, policy)))
            });
        }
    }
    group.finish();
}

/// One fleet verify/scan acquisition: `FleetSimConfig::fast` (analytic,
/// 4 averaged measurements) on the memoized warm path, a fresh nonce per
/// iteration, cycling over 64 pre-warmed devices.
fn bench_fleet_acquire(c: &mut Criterion) {
    let fleet = SimulatedFleet::new(FleetSimConfig::fast(64, 5));
    let names = fleet.device_names();
    for name in &names {
        let _ = fleet.acquire(name, 0);
    }
    let mut group = c.benchmark_group("itdr/fleet_acquire");
    group.sample_size(20);
    let mut nonce = 0u64;
    group.bench_function("fast_x4", |b| {
        b.iter(|| {
            nonce += 1;
            let name = &names[nonce as usize % names.len()];
            black_box(fleet.acquire(name, nonce))
        })
    });
    group.finish();
}

/// The standardized comparator margins `(d + offset − level)/σ` one
/// fleet acquisition evaluates: every non-saturated `(level, jitter
/// node)` pair of every ETS point, in kernel order (~5,200 values).
fn window_margins() -> Vec<f64> {
    let board = Board::fabricate(&BoardConfig::small_test(), 5);
    let fe = FrontEndConfig::default();
    let mut ch = BusChannel::new(board.line(0).clone(), fe, 5);
    let ctx = ch.measurement_context();
    let cfg = ItdrConfig::fast();
    let schedule = fe.level_schedule(cfg.repetitions);
    let quad = GaussHermite::new(9);
    let sigma = fe.effective_sigma();
    let offset = ctx.frontend.comparator_offset();
    let mut margins = Vec::new();
    for n in 0..cfg.ets.points() {
        let detectors: Vec<f64> = quad
            .abscissas(cfg.ets.time_of(n), ctx.jitter_rms)
            .map(|t| fe.coupler.detect(ctx.response.sample_at(t), ctx.forward.at(t)))
            .collect();
        let lo = detectors.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = detectors.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &(level, _) in &schedule {
            let guard = 8.0 * sigma;
            if level - (hi + offset) >= guard || (lo + offset) - level >= guard {
                continue;
            }
            margins.extend(detectors.iter().map(|&d| (d + offset - level) / sigma));
        }
    }
    margins
}

/// Scalar `std_cdf` per margin against one `std_cdf_batch` call, over
/// one acquisition's worth of window margins.
fn bench_std_cdf(c: &mut Criterion) {
    let margins = window_margins();
    println!("itdr/std_cdf: {} margins per acquisition", margins.len());
    let mut group = c.benchmark_group("itdr/std_cdf");
    group.sample_size(20);
    group.bench_function("scalar", |b| {
        b.iter(|| margins.iter().map(|&x| std_cdf(x)).sum::<f64>())
    });
    let mut lanes = margins.clone();
    group.bench_function("batch", |b| {
        b.iter(|| {
            lanes.copy_from_slice(&margins);
            std_cdf_batch(&mut lanes);
            black_box(lanes[0])
        })
    });
    group.finish();
}

/// Publish the Analytic-over-Trial speedup ratios (the acceptance numbers
/// in `EXPERIMENTS.md`), computed from the medians of the benches above.
fn record_speedups(c: &mut Criterion) {
    for (metric, trial, analytic) in [
        (
            "speedup_acq_analytic_paper_full_serial",
            "itdr/acq_paper_full/trial_serial",
            "itdr/acq_paper_full/analytic_serial",
        ),
        (
            "speedup_acq_analytic_paper_full_parallel",
            "itdr/acq_paper_full/trial_parallel",
            "itdr/acq_paper_full/analytic_parallel",
        ),
    ] {
        if let (Some(t), Some(a)) = (c.median_ns(trial), c.median_ns(analytic)) {
            c.record_metric(metric, t / a);
        }
    }
}

criterion_group!(
    benches,
    bench_measure,
    bench_enroll,
    bench_enroll_paper,
    bench_acq_paper_full,
    bench_fleet_acquire,
    bench_std_cdf,
    record_speedups
);
criterion_main!(benches);
