//! Bitwise pins for the analytic-sweep kernel's numeric building blocks.
//!
//! * `erfc` (with its `exp(−xsq²)` table and integer truncation) must be
//!   bitwise the textbook Cody evaluation it replaced, and `erfc_batch` /
//!   `std_cdf_batch` bitwise the scalar calls — on random bit patterns,
//!   on the region edges, and on the special values.
//! * A prepared `Binomial` must draw exactly what the one-shot sampler
//!   drew before preparation existed: the same count and the same stream
//!   position afterwards, for every small `n` and for probabilities on
//!   both sides of the inverse-CDF / rejection switch.
//!
//! The reference implementations below are the pre-table formulas, kept
//! here as test-only oracles.

use divot_dsp::erf::{erfc, erfc_batch};
use divot_dsp::gaussian::{std_cdf, std_cdf_batch};
use divot_dsp::rng::{Binomial, DivotRng};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// erfc oracle: Cody's regions with both halves of exp(−x²) evaluated
// per call and `trunc()` for the split point.
// ---------------------------------------------------------------------

#[allow(clippy::excessive_precision)]
mod oracle {
    const ERF_P: [f64; 5] = [
        3.209377589138469472562e3,
        3.774852376853020208137e2,
        1.138641541510501556495e2,
        3.161123743870565596947e0,
        1.857777061846031526730e-1,
    ];
    const ERF_Q: [f64; 4] = [
        2.844236833439170622273e3,
        1.282616526077372275645e3,
        2.440246379344441733056e2,
        2.360129095234412093499e1,
    ];
    const ERFC_P: [f64; 9] = [
        1.23033935479799725272e3,
        2.05107837782607146532e3,
        1.71204761263407058314e3,
        8.81952221241769090411e2,
        2.98635138197400131132e2,
        6.61191906371416294775e1,
        8.88314979438837594118e0,
        5.64188496988670089180e-1,
        2.15311535474403846343e-8,
    ];
    const ERFC_Q: [f64; 9] = [
        1.23033935480374942043e3,
        3.43936767414372163696e3,
        4.36261909014324715820e3,
        3.29079923573345962678e3,
        1.62138957456669018874e3,
        5.37181101862009857509e2,
        1.17693950891312499305e2,
        1.57449261107098347253e1,
        1.0,
    ];
    const ERFC_R: [f64; 6] = [
        -6.58749161529837803157e-4,
        -1.60837851487422766278e-2,
        -1.25781726111229246204e-1,
        -3.60344899949804439429e-1,
        -3.05326634961232344035e-1,
        -1.63153871373020978498e-2,
    ];
    const ERFC_S: [f64; 6] = [
        2.33520497626869185443e-3,
        6.05183413124413191178e-2,
        5.27905102951428412248e-1,
        1.87295284992346047209e0,
        2.56852019228982242072e0,
        1.0,
    ];
    const ONE_OVER_SQRT_PI: f64 = 0.564189583547756286948;

    fn erf_small(x: f64) -> f64 {
        let z = x * x;
        let mut num = ERF_P[4] * z;
        let mut den = z;
        for i in (1..4).rev() {
            num = (num + ERF_P[i]) * z;
            den = (den + ERF_Q[i]) * z;
        }
        x * (num + ERF_P[0]) / (den + ERF_Q[0])
    }

    fn erfc_mid(ax: f64) -> f64 {
        let mut num = ERFC_P[8] * ax;
        let mut den = ax;
        for i in (1..8).rev() {
            num = (num + ERFC_P[i]) * ax;
            den = (den + ERFC_Q[i]) * ax;
        }
        let r = (num + ERFC_P[0]) / (den + ERFC_Q[0]);
        let xsq = (ax * 16.0).trunc() / 16.0;
        let del = (ax - xsq) * (ax + xsq);
        (-xsq * xsq).exp() * (-del).exp() * r
    }

    fn erfc_large(ax: f64) -> f64 {
        if ax >= 26.7 {
            return 0.0;
        }
        let z = 1.0 / (ax * ax);
        let mut num = ERFC_R[5] * z;
        let mut den = z;
        for i in (1..5).rev() {
            num = (num + ERFC_R[i]) * z;
            den = (den + ERFC_S[i]) * z;
        }
        let r = z * (num + ERFC_R[0]) / (den + ERFC_S[0]);
        let r = (ONE_OVER_SQRT_PI + r) / ax;
        let xsq = (ax * 16.0).trunc() / 16.0;
        let del = (ax - xsq) * (ax + xsq);
        (-xsq * xsq).exp() * (-del).exp() * r
    }

    pub fn erfc(x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        let ax = x.abs();
        let v = if ax <= 0.46875 {
            return 1.0 - erf_small(x);
        } else if ax <= 4.0 {
            erfc_mid(ax)
        } else {
            erfc_large(ax)
        };
        if x < 0.0 {
            2.0 - v
        } else {
            v
        }
    }
}

/// `x` stepped `k` ulps (negative `k` steps toward −∞ for positive `x`).
fn ulps(x: f64, k: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + k) as u64)
}

/// The region edges ±4 ulps, both signs, plus every special value.
fn edge_cases() -> Vec<f64> {
    let mut xs = vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        -f64::from_bits(1),
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
    ];
    for edge in [0.46875f64, 4.0, 26.7] {
        for k in -4..=4 {
            xs.push(ulps(edge, k));
            xs.push(-ulps(edge, k));
        }
    }
    xs
}

fn assert_erfc_bitwise(xs: &[f64]) {
    let mut batch = xs.to_vec();
    erfc_batch(&mut batch);
    for (&x, &b) in xs.iter().zip(&batch) {
        let scalar = erfc(x);
        let want = oracle::erfc(x);
        assert_eq!(
            scalar.to_bits(),
            want.to_bits(),
            "erfc({x:e}) drifted from Cody"
        );
        assert_eq!(b.to_bits(), scalar.to_bits(), "erfc_batch({x:e}) != erfc");
    }
    let mut cdf = xs.to_vec();
    std_cdf_batch(&mut cdf);
    for (&x, &c) in xs.iter().zip(&cdf) {
        assert_eq!(c.to_bits(), std_cdf(x).to_bits(), "std_cdf_batch({x:e})");
    }
}

#[test]
fn erfc_batch_is_bitwise_on_edges_and_special_values() {
    assert_erfc_bitwise(&edge_cases());
    // And every edge value inside a longer batch, at every offset.
    let mut long = edge_cases();
    long.extend(edge_cases().iter().map(|x| x * 0.5));
    long.extend((0..200).map(|i| (i as f64 - 100.0) * 0.137));
    assert_erfc_bitwise(&long);
    assert_erfc_bitwise(&[]);
}

#[test]
fn erfc_is_bitwise_over_the_whole_table_range() {
    // Every split point k/16 of the exp(−xsq²) table, ±1 ulp, both signs.
    let mut xs = Vec::new();
    for k in 0..=428 {
        let x = k as f64 / 16.0;
        for d in -1..=1 {
            xs.push(ulps(x.max(f64::MIN_POSITIVE), d));
            xs.push(-ulps(x.max(f64::MIN_POSITIVE), d));
        }
    }
    assert_erfc_bitwise(&xs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn erfc_batch_is_bitwise_on_random_bit_patterns(
        bits in prop::collection::vec(any::<u64>(), 0..300),
    ) {
        let xs: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        assert_erfc_bitwise(&xs);
    }

    #[test]
    fn erfc_batch_is_bitwise_on_cdf_range_arguments(
        xs in prop::collection::vec(-40.0f64..40.0, 0..300),
    ) {
        assert_erfc_bitwise(&xs);
    }
}

// ---------------------------------------------------------------------
// Binomial oracle: the one-shot sampler, exactly as it was before
// preparation existed, driven by the same uniform stream.
// ---------------------------------------------------------------------

fn oracle_binomial(rng: &mut DivotRng, n: u64, p: f64) -> u64 {
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    let (q, flipped) = if p > 0.5 { (1.0 - p, true) } else { (p, false) };
    let k = if n as f64 * q < 10.0 {
        let s = q / (1.0 - q);
        let mut pmf = ((n as f64) * (1.0 - q).ln()).exp();
        let mut cdf = pmf;
        let u = rng.uniform();
        let mut k = 0u64;
        while cdf < u && k < n {
            pmf *= s * (n - k) as f64 / (k + 1) as f64;
            cdf += pmf;
            k += 1;
        }
        k
    } else {
        oracle_rejection(rng, n, q)
    };
    if flipped {
        n - k
    } else {
        k
    }
}

/// Transformed rejection (BTRS), verbatim from the pre-preparation
/// sampler, stirling tail included.
fn oracle_rejection(rng: &mut DivotRng, n: u64, q: f64) -> u64 {
    fn stirling_tail(k: f64) -> f64 {
        const TABLE: [f64; 10] = [
            0.081_061_466_795_327_81,
            0.041_340_695_955_409_46,
            0.027_677_925_684_998_34,
            0.020_790_672_103_765_09,
            0.016_644_691_189_821_19,
            0.013_876_128_823_070_747,
            0.011_896_709_945_891_8,
            0.010_411_265_261_972_096,
            0.009_255_462_182_712_732,
            0.008_330_563_433_362_87,
        ];
        if k < 10.0 {
            return TABLE[k as usize];
        }
        let kk = (k + 1.0) * (k + 1.0);
        (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * kk)) / kk) / (k + 1.0)
    }
    let nf = n as f64;
    let stddev = (nf * q * (1.0 - q)).sqrt();
    let b = 1.15 + 2.53 * stddev;
    let a = -0.0873 + 0.0248 * b + 0.01 * q;
    let c = nf * q + 0.5;
    let v_r = 0.92 - 4.2 / b;
    let r = q / (1.0 - q);
    let alpha = (2.83 + 5.1 / b) * stddev;
    let m = ((nf + 1.0) * q).floor();
    loop {
        let u = rng.uniform() - 0.5;
        let v = rng.uniform();
        let us = 0.5 - u.abs();
        let kf = ((2.0 * a / us + b) * u + c).floor();
        if kf < 0.0 || kf > nf {
            continue;
        }
        if us >= 0.07 && v <= v_r {
            return kf as u64;
        }
        let vt = (v * alpha / (a / (us * us) + b)).ln();
        let upper = (m + 0.5) * ((m + 1.0) / (r * (nf - m + 1.0))).ln()
            + (nf + 1.0) * ((nf - m + 1.0) / (nf - kf + 1.0)).ln()
            + (kf + 0.5) * (r * (nf - kf + 1.0) / (kf + 1.0)).ln()
            + stirling_tail(m)
            + stirling_tail(nf - m)
            - stirling_tail(kf)
            - stirling_tail(nf - kf);
        if vt <= upper {
            return kf as u64;
        }
    }
}

/// Probabilities to pin for `n` trials: the degenerate and symmetric
/// values, random ones, and the two sides of the `n·q = 10` switch
/// (mirrored too) where `n` allows it.
fn probabilities(n: u64, rng: &mut DivotRng) -> Vec<f64> {
    let mut ps = vec![0.0, 1.0, 0.5];
    ps.extend((0..6).map(|_| rng.uniform()));
    if n >= 20 {
        let edge = 10.0 / n as f64;
        for p in [
            ulps(edge, -1),
            edge,
            ulps(edge, 1),
            edge * 0.999,
            edge * 1.001,
        ] {
            ps.push(p);
            ps.push(1.0 - p);
        }
    }
    ps
}

#[test]
fn prepared_binomial_matches_the_one_shot_sampler_stream() {
    let mut pick = DivotRng::seed_from_u64(0xB1_0031);
    for n in 0..=64u64 {
        for p in probabilities(n, &mut pick) {
            let seed = pick.uniform().to_bits();
            let law = Binomial::new(n, p);
            assert_eq!(law.trials(), n);
            let mut prepared = DivotRng::seed_from_u64(seed);
            let mut oneshot = DivotRng::seed_from_u64(seed);
            let mut reference = DivotRng::seed_from_u64(seed);
            // One law, sampled repeatedly (as the shared point laws are),
            // against fresh one-shot draws on identical streams.
            for draw in 0..4 {
                let k = law.sample(&mut prepared);
                assert_eq!(
                    k,
                    oracle_binomial(&mut reference, n, p),
                    "n={n} p={p} draw {draw}"
                );
                assert_eq!(k, oneshot.binomial(n, p), "n={n} p={p} draw {draw}");
                assert!(k <= n);
            }
            // The stream position afterwards is identical too.
            let next = prepared.uniform().to_bits();
            assert_eq!(
                next,
                reference.uniform().to_bits(),
                "n={n} p={p}: stream drifted"
            );
            assert_eq!(
                next,
                oneshot.uniform().to_bits(),
                "n={n} p={p}: stream drifted"
            );
        }
    }
}

#[test]
fn prepared_binomial_matches_on_large_trial_counts() {
    // The rejection branch at acquisition-scale trigger counts.
    let mut pick = DivotRng::seed_from_u64(0xB1_0420);
    for n in [100u64, 420, 5_000, 100_000] {
        for p in probabilities(n, &mut pick) {
            let seed = pick.uniform().to_bits();
            let law = Binomial::new(n, p);
            let mut prepared = DivotRng::seed_from_u64(seed);
            let mut reference = DivotRng::seed_from_u64(seed);
            for _ in 0..3 {
                assert_eq!(
                    law.sample(&mut prepared),
                    oracle_binomial(&mut reference, n, p)
                );
            }
            assert_eq!(prepared.uniform().to_bits(), reference.uniform().to_bits());
        }
    }
}

#[test]
#[should_panic(expected = "p must be in [0,1]")]
fn prepared_binomial_rejects_bad_p() {
    let _ = Binomial::new(4, 1.5);
}
