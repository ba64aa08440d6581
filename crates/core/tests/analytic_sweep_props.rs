//! Property test: the bracketed analytic sweep is *bitwise* the full
//! linear sweep.
//!
//! The production analytic path brackets each ETS point's level schedule
//! (binary-searching the non-saturated window and bulk-recording the
//! saturated tails) and shares one point law across a call's
//! measurements. [`Itdr::measure_many_full_sweep`] is the retained
//! oracle: the unbracketed linear sweep over every `(measurement, point,
//! level)`. Whatever the configuration — ETS density, repetitions,
//! smoothing, channel seed, execution policy — the two must agree to the
//! last bit, because the bracketing only reorders *which* levels get a
//! quadrature pass, never what the RNG stream or the trip counter see.
//!
//! The production path also evaluates its trip probabilities through
//! its own batched kernel (margins computed in place, `std_cdf_batch`,
//! prepared binomials), while the oracle keeps the scalar
//! `FrontEnd::trip_probability` call per `(level, node)`. So the front
//! end varies too: random comparator offsets, the EMI aggressor folded
//! into σ_eff, and σ = 0, where both paths take the step branch.

use divot_analog::comparator::ComparatorConfig;
use divot_analog::frontend::FrontEndConfig;
use divot_core::apc::ReconstructionTable;
use divot_core::channel::BusChannel;
use divot_core::ets::EtsSchedule;
use divot_core::exec::ExecPolicy;
use divot_core::itdr::{AcqMode, Itdr, ItdrConfig};
use divot_core::pdm::effective_cdf;
use divot_txline::board::{Board, BoardConfig};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// One shared test board: fabrication is deterministic and dominated by
/// the OU profile draws, so every case reuses it and varies the channel
/// seed and front end instead.
///
/// A noiseless comparator has no invertible APC curve, so its channel
/// borrows the default front end's reconstruction ROM: the counts under
/// test are the step-branch ones either way, and both paths reconstruct
/// through the same table.
fn channel(seed: u64, frontend: FrontEndConfig, repetitions: u32) -> BusChannel {
    static BOARD: OnceLock<Board> = OnceLock::new();
    let board = BOARD.get_or_init(|| Board::fabricate(&BoardConfig::small_test(), 77));
    let mut ch = BusChannel::new(board.line(0).clone(), frontend, seed);
    if frontend.effective_sigma() == 0.0 {
        let table = ReconstructionTable::build(&effective_cdf(&FrontEndConfig::default()), repetitions);
        ch.seed_reconstruction_table(Arc::new(table));
    }
    ch
}

/// Front end `kind`: 0 the default, 1 with the EMI aggressor, 2 with a
/// noiseless comparator (σ_eff = 0) — each with a per-die comparator
/// offset drawn at `offset_sigma`.
fn frontend(kind: u8, offset_sigma: f64) -> FrontEndConfig {
    let base = match kind {
        0 => FrontEndConfig::default(),
        1 => FrontEndConfig::with_emi_aggressor(),
        _ => FrontEndConfig {
            comparator: ComparatorConfig {
                noise_sigma: 0.0,
                ..ComparatorConfig::default()
            },
            ..FrontEndConfig::default()
        },
    };
    FrontEndConfig {
        comparator: ComparatorConfig {
            offset_sigma,
            ..base.comparator
        },
        ..base
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(36))]

    #[test]
    fn bracketed_sweep_is_bitwise_the_full_sweep(
        // ETS grid: 4–15× the PLL phase step over 30–100 % of the paper
        // window (7..86 points).
        tau_mult in 4u32..16,
        window_frac in 0.3f64..1.0,
        // Repetitions must be a positive multiple of the Vernier
        // period (21 for the default front end).
        reps_cycles in 1u32..4,
        smoothing in 0usize..3,
        seed in any::<u64>(),
        count in 1usize..3,
        parallel in any::<bool>(),
        kind in 0u8..3,
        offset_sigma in 0.0f64..5e-3,
    ) {
        let config = ItdrConfig {
            ets: EtsSchedule::new(0.0, window_frac * 3.8e-9, f64::from(tau_mult) * 11.16e-12),
            repetitions: 21 * reps_cycles,
            smoothing_half_width: smoothing,
            acq_mode: AcqMode::Analytic,
        };
        let itdr = Itdr::new(config);
        let policy = if parallel { ExecPolicy::Parallel } else { ExecPolicy::Serial };
        // Identical channels, so both paths see identical contexts.
        let fe = frontend(kind, offset_sigma);
        if kind == 2 {
            prop_assert_eq!(fe.effective_sigma(), 0.0);
        }
        let reps = config.repetitions;
        let bracketed = itdr.measure_averaged_with(&mut channel(seed, fe, reps), count, policy);
        let full = itdr.measure_many_full_sweep(&mut channel(seed, fe, reps), count, policy);
        prop_assert_eq!(full.len(), count);
        // Fold the oracle's measurements exactly as measure_averaged does.
        let mut oracle = full[0].clone();
        for next in &full[1..] {
            oracle.try_add(next).expect("same ETS grid");
        }
        oracle.scale(1.0 / count as f64);
        prop_assert_eq!(bracketed.len(), oracle.len());
        for (k, (a, b)) in bracketed.samples().iter().zip(oracle.samples()).enumerate() {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "point {} diverges: bracketed {} vs full {}",
                k, a, b
            );
        }
    }
}
