//! Property-based equivalence of the optimized scattering kernel against
//! the naive reference kernel, and of the LTI impulse-response fast path
//! against direct simulation.
//!
//! The optimized kernel (precomputed ρ-tables + branch-free tap splitting,
//! [`Engine::run`]) keeps the reference kernel's floating-point expressions
//! and evaluation order intact, so its output is **bitwise identical** to
//! [`Engine::run_reference`] — not merely close. These tests pin that down
//! over random impedance profiles, terminations, drives, and tap layouts,
//! including the cases where the optimized kernel's light cone skips the
//! most: the unit impulse [`Network::impulse_response`] runs, runs shorter
//! than the line, and lines whose zeros could change sign.
//!
//! The settled-edge render is pinned bit for bit against the per-sample
//! step-decomposition sum it replaced. The general render goes through an
//! FFT, so it is held to a round-off bound against direct simulation.

use divot_dsp::waveform::Waveform;
use divot_txline::iip::{FabricationProcess, IipProfile};
use divot_txline::impulse::{ImpulseResponse, DIRECT_RENDER_MAX_TRANSIENT};
use divot_txline::scatter::{EdgeShape, Engine, Network, SimConfig, StubSpec, Tap, TxLine};
use divot_txline::termination::{ChipInput, Termination};
use divot_txline::units::{Farads, Meters, Ohms, Seconds, Volts};
use proptest::prelude::*;

fn fast_sim() -> SimConfig {
    SimConfig {
        rise_time: Seconds(100e-12),
        duration_factor: 2.4,
        ..SimConfig::default()
    }
}

fn termination_from(kind: usize) -> Termination {
    match kind {
        0 => Termination::Matched,
        1 => Termination::Open,
        2 => Termination::Short,
        3 => Termination::Resistive(Ohms(75.0)),
        _ => Termination::Chip(ChipInput::typical_sdram()),
    }
}

/// Assert equality sample for sample, down to the sign of a zero.
fn assert_same_bits(what: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: sample {i}: {x:e} != {y:e}"
        );
    }
}

/// Run both kernels on the same network/config/drive and assert bitwise
/// equality sample-for-sample.
fn assert_kernels_agree(net: &Network, cfg: &SimConfig, drive: &[f64]) {
    let optimized = Engine::new(net, cfg).run(drive);
    let reference = Engine::new(net, cfg).run_reference(drive);
    assert_same_bits(
        "optimized vs reference",
        optimized.samples(),
        reference.samples(),
    );
}

/// [`assert_kernels_agree`] under `cfg`'s own edge drive.
fn assert_bitwise(net: &Network, cfg: &SimConfig) {
    let drive = cfg.drive_samples(&net.main, Engine::new(net, cfg).ticks());
    assert_kernels_agree(net, cfg, &drive);
}

/// [`assert_kernels_agree`] under the unit impulse
/// [`Network::impulse_response`] runs.
fn assert_bitwise_impulse(net: &Network, cfg: &SimConfig) {
    let mut impulse = vec![0.0; Engine::new(net, cfg).ticks()];
    impulse[0] = 1.0;
    assert_kernels_agree(net, cfg, &impulse);
}

fn paper_line(segments: usize, seed: u64, termination: Termination) -> TxLine {
    let profile =
        FabricationProcess::paper_prototype().sample_profile(Meters(0.25), segments, seed, 0);
    TxLine::new(profile, termination)
}

fn stub_from(kind: usize) -> StubSpec {
    match kind {
        0 => StubSpec::oscilloscope_tap(),
        1 => StubSpec {
            length: Meters(0.03),
            z0: Ohms(50.0),
            termination: Termination::Short,
        },
        _ => StubSpec {
            length: Meters(0.05),
            z0: Ohms(150.0),
            termination: Termination::Chip(ChipInput::typical_sdram()),
        },
    }
}

/// The per-sample form of the settled-edge direct render, the test-only
/// oracle for [`ImpulseResponse::render`]: the drive evaluated through
/// [`EdgeShape::at`] on every tick, and each output sample summed on its
/// own as `tail·cumsum(h)[n] + Σ_m (drive[m] − tail)·h[n − m]`.
fn per_sample_render(ir: &ImpulseResponse, z_source: f64, cfg: &SimConfig) -> Vec<f64> {
    let n = ir.render_ticks(cfg);
    let a = cfg.amplitude.0 * (z_source / (cfg.source_impedance.0 + z_source));
    let drive: Vec<f64> = (0..n)
        .map(|t| a * cfg.shape.at(t as f64 * ir.dt() / cfg.rise_time.0))
        .collect();
    let tail = drive[n - 1];
    let transient = drive.iter().rposition(|&v| v != tail).map_or(0, |p| p + 1);
    assert!(
        transient <= DIRECT_RENDER_MAX_TRANSIENT,
        "not a direct render"
    );
    let h = ir.samples();
    let cumulative: Vec<f64> = h
        .iter()
        .scan(0.0, |acc, &x| {
            *acc += x;
            Some(*acc)
        })
        .collect();
    (0..n)
        .map(|i| {
            let mut acc = tail * cumulative[i];
            for (m, &d) in drive.iter().enumerate().take(transient.min(i + 1)) {
                acc += (d - tail) * h[i - m];
            }
            acc
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tap-free networks over fully random impedance profiles: the span
    /// fast path must reproduce the reference bit-for-bit under every
    /// termination model.
    #[test]
    fn clean_network_is_bitwise_identical(
        z in proptest::collection::vec(30.0f64..80.0, 16..96),
        term_kind in 0usize..5,
    ) {
        let line = TxLine::new(
            IipProfile::new(z, Meters(0.002)),
            termination_from(term_kind),
        );
        assert_bitwise(&line.network(), &fast_sim());
    }

    /// 1–3 taps at random positions, each with a ChipInput-terminated stub
    /// (the stateful termination exercising the junction + stub sub-lines):
    /// the split-loop kernel must match the reference sample-for-sample.
    #[test]
    fn tapped_network_is_bitwise_identical(
        seed in 0u64..500,
        positions in proptest::collection::vec(0.05f64..0.95, 1..4),
        c_pf in 0.2f64..2.0,
    ) {
        // Distinct junction interfaces: the engine snaps each position to a
        // segment boundary of the 128-segment line, so require the raw
        // positions to be at least two segments apart.
        for (i, a) in positions.iter().enumerate() {
            for b in &positions[i + 1..] {
                prop_assume!((a - b).abs() > 2.0 / 128.0);
            }
        }
        let process = FabricationProcess::paper_prototype();
        let profile = process.sample_profile(Meters(0.25), 128, seed, 0);
        let main = TxLine::new(profile, Termination::Chip(ChipInput::typical_sdram()));
        let taps = positions
            .iter()
            .map(|&position| Tap {
                position,
                stub: StubSpec {
                    length: Meters(0.06),
                    z0: Ohms(130.0),
                    termination: Termination::Chip(ChipInput {
                        resistance: Ohms(60.0),
                        capacitance: Farads(c_pf * 1e-12),
                    }),
                },
            })
            .collect();
        let net = Network { main, taps };
        assert_bitwise(&net, &fast_sim());
    }

    /// Random drive parameters (amplitude, rise time, edge shape) never
    /// break the equivalence — the kernels are drive-agnostic.
    #[test]
    fn random_drives_are_bitwise_identical(
        seed in 0u64..500,
        amp in 0.2f64..2.0,
        rise_ps in 40.0f64..300.0,
        shape_kind in 0usize..3,
    ) {
        let process = FabricationProcess::paper_prototype();
        let profile = process.sample_profile(Meters(0.25), 96, seed, 0);
        let line = TxLine::new(profile, Termination::Chip(ChipInput::typical_sdram()));
        let cfg = SimConfig {
            amplitude: Volts(amp),
            rise_time: Seconds(rise_ps * 1e-12),
            shape: match shape_kind {
                0 => EdgeShape::Linear,
                1 => EdgeShape::RaisedCosine,
                _ => EdgeShape::Exponential,
            },
            ..fast_sim()
        };
        assert_bitwise(&line.network(), &cfg);
    }

    /// The impulse-response fast path (one kernel run + FFT convolution per
    /// drive) matches a direct simulation to FFT round-off, across random
    /// networks and drive variations.
    #[test]
    fn impulse_render_matches_direct_simulation(
        seed in 0u64..500,
        amp in 0.2f64..2.0,
        rise_ps in 40.0f64..300.0,
    ) {
        let process = FabricationProcess::paper_prototype();
        let profile = process.sample_profile(Meters(0.25), 128, seed, 0);
        let line = TxLine::new(profile, Termination::Chip(ChipInput::typical_sdram()));
        let net = line.network();
        let base = fast_sim();
        let ir = net.impulse_response(&base);
        let cfg = SimConfig {
            amplitude: Volts(amp),
            rise_time: Seconds(rise_ps * 1e-12),
            ..base
        };
        prop_assume!(ir.supports(&cfg));
        let rendered = ir.render(&cfg).unwrap();
        let direct = net.edge_response(&cfg);
        prop_assert_eq!(rendered.len(), direct.len());
        for (i, (a, b)) in rendered.samples().iter().zip(direct.samples()).enumerate() {
            prop_assert!((a - b).abs() < 1e-9, "sample {}: {} vs {}", i, a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The unit impulse `impulse_response` runs — a single nonzero sample,
    /// so half the lattice carries only zeros — over random profiles,
    /// every termination, and 0–2 taps.
    #[test]
    fn unit_impulse_drive_is_bitwise_identical(
        z in proptest::collection::vec(30.0f64..80.0, 16..96),
        term_kind in 0usize..5,
        tap_count in 0usize..3,
        stub_kind in 0usize..3,
    ) {
        let main = TxLine::new(IipProfile::new(z, Meters(0.002)), termination_from(term_kind));
        let taps = [0.3, 0.7][..tap_count]
            .iter()
            .map(|&position| Tap { position, stub: stub_from(stub_kind) })
            .collect();
        assert_bitwise_impulse(&Network { main, taps }, &fast_sim());
    }

    /// Runs shorter than a round trip, where the cone's two edges cross
    /// inside the line (about a third of the cases run fewer ticks than
    /// the line has segments): edge and impulse drives, clean and tapped.
    #[test]
    fn short_runs_are_bitwise_identical(
        seed in 0u64..500,
        duration in 0.01f64..0.6,
        term_kind in 0usize..5,
        tapped in any::<bool>(),
    ) {
        let main = paper_line(128, seed, termination_from(term_kind));
        let taps = if tapped {
            vec![Tap { position: 0.4, stub: StubSpec::oscilloscope_tap() }]
        } else {
            Vec::new()
        };
        let net = Network { main, taps };
        let cfg = SimConfig { duration_factor: duration, ..fast_sim() };
        prop_assert!(Engine::new(&net, &cfg).ticks() < 2 * 128);
        assert_bitwise(&net, &cfg);
        assert_bitwise_impulse(&net, &cfg);
    }

    /// A uniform line with a tap: every interface but the junction has
    /// `ρ = 0`, so the output before the junction echo is a sum of zeros,
    /// and a junction or stub skipped outside the cone must not flip the
    /// sign of any of them.
    #[test]
    fn uniform_line_with_a_tap_is_bitwise_identical(
        position in 0.1f64..0.9,
        term_kind in 0usize..5,
        stub_kind in 0usize..3,
        lossless in any::<bool>(),
        negative in any::<bool>(),
    ) {
        let mut main = TxLine::new(
            IipProfile::uniform(Ohms(50.0), Meters(0.25), 96),
            termination_from(term_kind),
        );
        if lossless {
            main.loss_db_per_m = 0.0;
        }
        let net = Network {
            main,
            taps: vec![Tap { position, stub: stub_from(stub_kind) }],
        };
        let cfg = SimConfig {
            amplitude: Volts(if negative { -0.9 } else { 0.9 }),
            ..fast_sim()
        };
        assert_bitwise(&net, &cfg);
        assert_bitwise_impulse(&net, &cfg);
    }

    /// Every interface reflects negatively and the termination turns the
    /// zero ahead of the wavefront into `−0` (a short, a low resistor):
    /// the reference kernel carries those `−0`s all the way to the source
    /// before the first echo, and the optimized kernel must too. With a
    /// tap on the line the junction stops them in both kernels.
    #[test]
    fn negative_zeros_from_the_termination_are_kept(
        segments in 8usize..64,
        term_kind in 0usize..3,
        drive_kind in 0usize..3,
        tapped in any::<bool>(),
    ) {
        let z = (0..segments).map(|i| 80.0 - 0.5 * i as f64).collect();
        let termination = match term_kind {
            0 => Termination::Short,
            1 => Termination::Resistive(Ohms(5.0)),
            _ => Termination::Chip(ChipInput::typical_sdram()),
        };
        let main = TxLine::new(IipProfile::new(z, Meters(0.002)), termination);
        let taps = if tapped {
            vec![Tap { position: 0.8, stub: stub_from(1) }]
        } else {
            Vec::new()
        };
        let net = Network { main, taps };
        let cfg = fast_sim();
        let ticks = Engine::new(&net, &cfg).ticks();
        let drive = match drive_kind {
            0 => {
                let mut d = vec![0.0; ticks];
                d[0] = 1.0;
                d
            }
            1 => vec![0.0; ticks],
            _ => Vec::new(),
        };
        assert_kernels_agree(&net, &cfg, &drive);
    }

    /// The settled-edge render reproduces the per-sample oracle bit for
    /// bit, for Linear and RaisedCosine edges across rise times, on clean
    /// and tapped boards.
    #[test]
    fn settled_edge_render_matches_per_sample_oracle(
        seed in 0u64..500,
        amp in 0.2f64..2.0,
        rise_ps in 5.0f64..900.0,
        linear in any::<bool>(),
        tapped in any::<bool>(),
    ) {
        let main = paper_line(128, seed, Termination::Chip(ChipInput::typical_sdram()));
        let z_source = main.profile.z_at_source();
        let taps = if tapped {
            vec![Tap { position: 0.55, stub: StubSpec::oscilloscope_tap() }]
        } else {
            Vec::new()
        };
        let net = Network { main, taps };
        let base = SimConfig { duration_factor: 2.2, ..SimConfig::default() };
        let ir = net.impulse_response(&SimConfig { rise_time: Seconds(900e-12), ..base });
        let cfg = SimConfig {
            amplitude: Volts(amp),
            rise_time: Seconds(rise_ps * 1e-12),
            shape: if linear { EdgeShape::Linear } else { EdgeShape::RaisedCosine },
            ..base
        };
        let rendered = ir.render(&cfg).expect("shorter rise fits the stored run");
        assert_same_bits("render vs oracle", rendered.samples(), &per_sample_render(&ir, z_source, &cfg));
    }
}

/// The impulse spectrum is built by the first FFT render. An Exponential
/// edge only rounds to its settled level after ~17 rise times (~770 ticks
/// of this grid at 600 ps, far past `DIRECT_RENDER_MAX_TRANSIENT`), so it
/// takes that path. Clones taken before and after it render every drive
/// to the same bits as the original.
#[test]
fn lazy_spectrum_renders_identically_across_clones() {
    let net = paper_line(128, 21, Termination::Chip(ChipInput::typical_sdram())).network();
    let base = SimConfig {
        rise_time: Seconds(600e-12),
        ..fast_sim()
    };
    let ir = net.impulse_response(&base);
    let exponential = SimConfig {
        shape: EdgeShape::Exponential,
        ..base
    };
    let drives = [
        base,
        SimConfig {
            shape: EdgeShape::Linear,
            ..base
        },
        exponential,
    ];
    let before = ir.clone();
    let first: Vec<Waveform> = drives.iter().map(|c| ir.render(c).unwrap()).collect();
    let after = ir.clone();
    for (i, cfg) in drives.iter().enumerate() {
        for (name, copy) in [("before", &before), ("after", &after), ("original", &ir)] {
            let again = copy.render(cfg).unwrap();
            assert_same_bits(name, again.samples(), first[i].samples());
        }
    }
    // The FFT path still matches a direct simulation to round-off.
    let direct = net.edge_response(&exponential);
    for (a, b) in first[2].samples().iter().zip(direct.samples()) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}
