//! Property-based tests on the DSP substrate's invariants, including
//! the bit-exact equivalence of every block kernel
//! (`apply_i32_into` / `combine_block_into`) with its per-sample
//! reference loop, and of the scratch-based DWT and Φ/Φᵀ kernels
//! (`wavedec_into` / `waverec_into` / `apply_into` / `apply_t_into`)
//! with the straightforward `%`-indexed, allocating loops kept below as
//! oracles. Their lane forms (`*_lanes`, `K` vectors side by side) are
//! held lane by lane to those one-lane kernels.

use proptest::prelude::*;
use wbsn_sigproc::combine::{rms_combine, RmsCombiner};
use wbsn_sigproc::div::ExactDiv;
use wbsn_sigproc::matrix::{PackedTernaryMatrix, SparseTernaryMatrix};
use wbsn_sigproc::morphology::{close, dilate, erode, open, sliding_extreme_naive};
use wbsn_sigproc::stats::{isqrt_u64, prd_percent, snr_db};
use wbsn_sigproc::wavelet::{
    wavedec_into, wavedec_lanes, waverec_into, waverec_lanes, DwtScratch, Wavelet,
};

/// [`wavedec_into`] on a fresh scratch into a fresh vector.
fn wavedec_fresh(x: &[f64], w: Wavelet, levels: usize) -> Vec<f64> {
    let mut out = Vec::new();
    wavedec_into(x, w, levels, &mut DwtScratch::default(), &mut out).unwrap();
    out
}

/// [`waverec_into`] on a fresh scratch into a fresh vector.
fn waverec_fresh(coeffs: &[f64], w: Wavelet, levels: usize) -> Vec<f64> {
    let mut out = Vec::new();
    waverec_into(coeffs, w, levels, &mut DwtScratch::default(), &mut out).unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sliding_extremes_match_naive(
        x in prop::collection::vec(-5000i32..5000, 1..200),
        half in 0usize..20,
    ) {
        let w = 2 * half + 1;
        prop_assert_eq!(erode(&x, w), sliding_extreme_naive(&x, w, false));
        prop_assert_eq!(dilate(&x, w), sliding_extreme_naive(&x, w, true));
    }

    #[test]
    fn morphology_order_laws(
        x in prop::collection::vec(-5000i32..5000, 8..120),
        half in 1usize..8,
    ) {
        let w = 2 * half + 1;
        let op = open(&x, w);
        let cl = close(&x, w);
        for i in 0..x.len() {
            // Anti-extensivity / extensivity.
            prop_assert!(op[i] <= x[i]);
            prop_assert!(cl[i] >= x[i]);
        }
        // Idempotence.
        prop_assert_eq!(open(&op, w), op.clone());
        prop_assert_eq!(close(&cl, w), cl.clone());
    }

    #[test]
    fn dwt_round_trips(
        x in prop::collection::vec(-1000.0f64..1000.0, 64..65),
        levels in 1usize..6,
    ) {
        for w in [Wavelet::Haar, Wavelet::Db2, Wavelet::Db4] {
            let c = wavedec_fresh(&x, w, levels);
            let y = waverec_fresh(&c, w, levels);
            for (a, b) in x.iter().zip(&y) {
                prop_assert!((a - b).abs() < 1e-6);
            }
            // Energy preservation (orthonormality).
            let ex: f64 = x.iter().map(|v| v * v).sum();
            let ec: f64 = c.iter().map(|v| v * v).sum();
            prop_assert!((ex - ec).abs() <= 1e-6 * ex.max(1.0));
        }
    }

    #[test]
    fn isqrt_is_exact_floor(v in 0u64..u64::MAX) {
        let r = isqrt_u64(v);
        prop_assert!(r.checked_mul(r).is_none_or(|sq| sq <= v));
        let r1 = r + 1;
        prop_assert!(r1.checked_mul(r1).is_none_or(|sq| sq > v));
    }

    #[test]
    fn sparse_matrix_is_linear_and_adjoint(
        seed in 0u64..1000,
        d in 1usize..6,
    ) {
        let m = 24usize;
        let n = 48usize;
        let phi = SparseTernaryMatrix::random(m, n, d, seed).unwrap();
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 + seed as usize) % 17) as f64 - 8.0).collect();
        let y: Vec<f64> = (0..m).map(|i| ((i * 7 + seed as usize) % 11) as f64 - 5.0).collect();
        // <Φx, y> == <x, Φᵀy>
        let ax = phi.apply(&x);
        let aty = phi.apply_t(&y);
        let lhs: f64 = ax.iter().zip(&y).map(|(p, q)| p * q).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(p, q)| p * q).sum();
        prop_assert!((lhs - rhs).abs() < 1e-9);
        // Linearity: Φ(2x) == 2Φx.
        let x2: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        let ax2 = phi.apply(&x2);
        for (a, b) in ax2.iter().zip(&ax) {
            prop_assert!((a - 2.0 * b).abs() < 1e-9);
        }
    }

    #[test]
    fn packed_matrix_matches_dense(seed in 0u64..500) {
        let p = PackedTernaryMatrix::random_achlioptas(8, 24, seed).unwrap();
        let d = p.to_dense();
        let x: Vec<f64> = (0..24).map(|i| (i as f64 - 12.0) * 0.5).collect();
        let yp = p.apply(&x);
        let yd = d.matvec(&x);
        for (a, b) in yp.iter().zip(&yd) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn rms_combine_bounds(
        a in prop::collection::vec(-2000i32..2000, 1..50),
    ) {
        let b: Vec<i32> = a.iter().map(|&v| -v).collect();
        let y = rms_combine(&[a.clone(), b]).unwrap();
        for (i, &v) in y.iter().enumerate() {
            // RMS of {v, -v} is |v| (within integer sqrt flooring).
            prop_assert!((v - a[i].abs()).abs() <= 1);
            prop_assert!(v >= 0);
        }
    }

    #[test]
    fn csc_encode_matches_dense_and_into_forms(
        seed in 0u64..1000,
        rows in 1usize..24,
        cols in 1usize..96,
        x in prop::collection::vec(-4096i32..4096, 96),
    ) {
        let d = 1 + (seed as usize % rows);
        let phi = SparseTernaryMatrix::random(rows, cols, d, seed).unwrap();
        let x = &x[..cols];
        let want = phi.apply_i32(x);
        // Dense reference.
        let dense = phi.to_dense();
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let yd = dense.matvec(&xf);
        for (a, b) in want.iter().zip(&yd) {
            prop_assert_eq!(*a as f64, *b);
        }
        // `_into` form reuses a dirty buffer and must still agree.
        let mut y = vec![i64::MIN; 3];
        phi.apply_i32_into(x, &mut y);
        prop_assert_eq!(&want, &y);
        // Slice form over a larger buffer.
        let mut big = vec![i64::MAX; rows + 7];
        phi.apply_i32_to_slice(x, &mut big[3..3 + rows]);
        prop_assert_eq!(&want[..], &big[3..3 + rows]);
    }

    #[test]
    fn packed_into_form_matches_allocating(
        seed in 0u64..500,
        x in prop::collection::vec(-4096i32..4096, 24),
    ) {
        let p = PackedTernaryMatrix::random_achlioptas(8, 24, seed).unwrap();
        let want = p.apply_i32(&x);
        let mut got = vec![42i64; 1];
        p.apply_i32_into(&x, &mut got);
        prop_assert_eq!(want, got);
    }

    #[test]
    fn rms_block_matches_per_frame(
        frames in prop::collection::vec(-300_000i32..300_000, 0..240),
        n_leads in 1usize..8,
    ) {
        let usable = frames.len() - frames.len() % n_leads;
        let frames = &frames[..usable];
        let c = RmsCombiner::new(n_leads).unwrap();
        let want: Vec<i32> = frames.chunks_exact(n_leads).map(|f| c.push(f)).collect();
        let mut got = vec![-1i32; 2];
        c.combine_block_into(frames, &mut got);
        prop_assert_eq!(want, got);
    }

    #[test]
    fn exact_div_matches_hardware(
        d in 1usize..70_000,
        x in -(1i64 << 46)..(1i64 << 46),
    ) {
        let e = ExactDiv::new(d).unwrap();
        prop_assert_eq!(e.div(x), x / d as i64);
    }

    #[test]
    fn snr_prd_duality_holds(
        x in prop::collection::vec(1.0f64..100.0, 4..40),
        noise in prop::collection::vec(-0.5f64..0.5, 40),
    ) {
        let y: Vec<f64> = x.iter().zip(&noise).map(|(a, e)| a + e).collect();
        if x.iter().zip(&y).any(|(a, b)| a != b) {
            let snr = snr_db(&x, &y);
            let prd = prd_percent(&x, &y);
            let snr2 = -20.0 * (prd / 100.0).log10();
            prop_assert!((snr - snr2).abs() < 1e-9);
        }
    }
}

// ---- Oracles: the textbook kernels the scratch forms must match bit
// for bit (periodic wrap by `% n` on every tap, a fresh `Vec` per
// level, the QMF high-pass filter recomputed per call). ----

fn ref_wavelet_filter(w: Wavelet) -> Vec<f64> {
    let h = w.scaling_filter();
    let l = h.len();
    (0..l)
        .map(|n| {
            let sign = if n % 2 == 0 { 1.0 } else { -1.0 };
            sign * h[l - 1 - n]
        })
        .collect()
}

fn ref_wavedec(x: &[f64], wavelet: Wavelet, levels: usize) -> Vec<f64> {
    let h = wavelet.scaling_filter();
    let g = ref_wavelet_filter(wavelet);
    let mut approx = x.to_vec();
    let mut details: Vec<Vec<f64>> = Vec::with_capacity(levels);
    for _ in 0..levels {
        let n = approx.len();
        let half = n / 2;
        let mut a = vec![0.0; half];
        let mut d = vec![0.0; half];
        for k in 0..half {
            let mut sa = 0.0;
            let mut sd = 0.0;
            for (j, (&hj, &gj)) in h.iter().zip(&g).enumerate() {
                let idx = (2 * k + j) % n;
                sa += hj * approx[idx];
                sd += gj * approx[idx];
            }
            a[k] = sa;
            d[k] = sd;
        }
        details.push(d);
        approx = a;
    }
    let mut out = approx;
    for d in details.into_iter().rev() {
        out.extend(d);
    }
    out
}

fn ref_waverec(coeffs: &[f64], wavelet: Wavelet, levels: usize) -> Vec<f64> {
    let n = coeffs.len();
    let h = wavelet.scaling_filter();
    let g = ref_wavelet_filter(wavelet);
    let coarsest = n >> levels;
    let mut approx = coeffs[..coarsest].to_vec();
    let mut offset = coarsest;
    for lev in (0..levels).rev() {
        let dn = n >> (lev + 1);
        let d = &coeffs[offset..offset + dn];
        offset += dn;
        let out_n = dn * 2;
        let mut out = vec![0.0; out_n];
        for k in 0..dn {
            for (j, (&hj, &gj)) in h.iter().zip(&g).enumerate() {
                let idx = (2 * k + j) % out_n;
                out[idx] += hj * approx[k] + gj * d[k];
            }
        }
        approx = out;
    }
    approx
}

fn ref_apply(phi: &SparseTernaryMatrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; phi.rows()];
    for (col, &xv) in x.iter().enumerate() {
        let (pos, neg) = phi.column(col);
        for &r in pos {
            y[r as usize] += xv;
        }
        for &r in neg {
            y[r as usize] -= xv;
        }
    }
    y
}

fn ref_apply_t(phi: &SparseTernaryMatrix, y: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; phi.cols()];
    for (col, out) in x.iter_mut().enumerate() {
        let (pos, neg) = phi.column(col);
        let p: f64 = pos.iter().map(|&r| y[r as usize]).sum();
        let n: f64 = neg.iter().map(|&r| y[r as usize]).sum();
        *out = p - n;
    }
    x
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

const WAVELETS: [Wavelet; 3] = [Wavelet::Haar, Wavelet::Db2, Wavelet::Db4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Every family and depth, at lengths down to one sample per
    // deepest band (`n = 2^levels`), where Db4's deep levels are far
    // shorter than the filter and each tap wraps several times. One
    // dirty scratch and one pair of output buffers serve every size
    // in turn, largest first, so reuse across shrinking and growing
    // shapes is covered.
    #[test]
    fn dwt_into_forms_match_modulo_oracle_bitwise(
        raw in prop::collection::vec(-3000.0f64..3000.0, 16 * 32),
        levels in 1usize..6,
        mults in prop::collection::vec(1usize..17, 1..5),
    ) {
        let mut scratch = DwtScratch::default();
        let mut coeffs = vec![f64::NAN; 3];
        let mut rec = vec![f64::NAN; 700];
        for &w in &WAVELETS {
            for &k in &mults {
                let n = k << levels;
                let x = &raw[..n];
                let want_c = ref_wavedec(x, w, levels);
                wavedec_into(x, w, levels, &mut scratch, &mut coeffs).unwrap();
                prop_assert_eq!(bits(&want_c), bits(&coeffs), "{:?} L{} n={} dec", w, levels, n);
                prop_assert_eq!(bits(&want_c), bits(&wavedec_fresh(x, w, levels)));
                // Synthesis of arbitrary coefficients (not only of
                // analysis outputs) exercises every accumulation order.
                let want_x = ref_waverec(x, w, levels);
                waverec_into(x, w, levels, &mut scratch, &mut rec).unwrap();
                prop_assert_eq!(bits(&want_x), bits(&rec), "{:?} L{} n={} rec", w, levels, n);
                prop_assert_eq!(bits(&want_x), bits(&waverec_fresh(x, w, levels)));
            }
        }
    }

    // The masked kernels against the two-loop oracles, down to the sign
    // of zero: ±0.0 entries, all-zero inputs, and column weights up to
    // `rows`, where whole columns are positive or negative (every
    // column is at `d = 1`). `d = 4` runs the unrolled kernel.
    #[test]
    fn sparse_into_forms_match_allocating_oracle_bitwise(
        seed in 0u64..1000,
        rows in 1usize..40,
        cols in 1usize..80,
        d_pick in 0usize..64,
        vals in prop::collection::vec(-5000.0f64..5000.0, 80),
        zero_picks in prop::collection::vec(0u8..6, 80),
        zero_inputs in 0u8..4,
    ) {
        let d = match d_pick % 4 {
            0 => 4.min(rows),
            1 => 1,
            _ => 1 + d_pick % rows,
        };
        let phi = SparseTernaryMatrix::random(rows, cols, d, seed).unwrap();
        let signed: Vec<f64> = vals
            .iter()
            .zip(&zero_picks)
            .map(|(&v, &z)| match z {
                0 => 0.0,
                1 => -0.0,
                _ => v,
            })
            .collect();
        let zeros: Vec<f64> = zero_picks
            .iter()
            .map(|&z| if z % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        let x = if zero_inputs & 1 == 0 { &signed[..cols] } else { &zeros[..cols] };
        let y = if zero_inputs & 2 == 0 { &signed[..rows] } else { &zeros[..rows] };
        // Dirty, wrongly sized buffers must be fully overwritten.
        let mut ax = vec![f64::NAN; 2 * rows + 1];
        let mut aty = vec![f64::INFINITY; 1];
        phi.apply_into(x, &mut ax);
        phi.apply_t_into(y, &mut aty);
        prop_assert_eq!(bits(&ref_apply(&phi, x)), bits(&ax));
        prop_assert_eq!(bits(&ref_apply_t(&phi, y)), bits(&aty));
        prop_assert_eq!(bits(&ref_apply(&phi, x)), bits(&phi.apply(x)));
        prop_assert_eq!(bits(&ref_apply_t(&phi, y)), bits(&phi.apply_t(y)));
    }
}

/// `K` lanes interleaved from `K` windows of `raw`, lane `l` starting
/// at `l · stride`, with `±0.0` planted where `zeros` says.
fn lanes_of<const K: usize>(raw: &[f64], n: usize, zeros: &[u8]) -> Vec<[f64; K]> {
    (0..n)
        .map(|i| {
            core::array::from_fn(|l| match zeros[(i * K + l) % zeros.len()] {
                0 => 0.0,
                1 => -0.0,
                _ => raw[(i + l * 37) % raw.len()],
            })
        })
        .collect()
}

fn lane<const K: usize>(v: &[[f64; K]], l: usize) -> Vec<f64> {
    v.iter().map(|row| row[l]).collect()
}

/// Every lane kernel at `K` lanes against the one-lane kernel on each
/// lane alone, bit for bit, through one dirty scratch.
fn check_lanes<const K: usize>(
    raw: &[f64],
    zeros: &[u8],
    levels: usize,
    mults: &[usize],
    phi: &SparseTernaryMatrix,
) {
    let mut scratch = DwtScratch::default();
    for &w in &WAVELETS {
        for &k in mults {
            let n = k << levels;
            let x = lanes_of::<K>(raw, n, zeros);
            let mut coeffs = vec![[f64::NAN; K]; n];
            let mut rec = vec![[f64::NAN; K]; n];
            wavedec_lanes(&x, w, levels, &mut scratch, &mut coeffs).unwrap();
            waverec_lanes(&x, w, levels, &mut scratch, &mut rec).unwrap();
            for l in 0..K {
                let one = lane(&x, l);
                prop_assert_eq!(
                    bits(&wavedec_fresh(&one, w, levels)),
                    bits(&lane(&coeffs, l))
                );
                prop_assert_eq!(bits(&waverec_fresh(&one, w, levels)), bits(&lane(&rec, l)));
            }
        }
    }
    let x = lanes_of::<K>(raw, phi.cols(), zeros);
    let y = lanes_of::<K>(&raw[7..], phi.rows(), &zeros[1..]);
    let mut ax = vec![[f64::NAN; K]; phi.rows()];
    let mut aty = vec![[f64::INFINITY; K]; phi.cols()];
    phi.apply_lanes(&x, &mut ax);
    phi.apply_t_lanes(&y, &mut aty);
    for l in 0..K {
        prop_assert_eq!(bits(&phi.apply(&lane(&x, l))), bits(&lane(&ax, l)));
        prop_assert_eq!(bits(&phi.apply_t(&lane(&y, l))), bits(&lane(&aty, l)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Two, three and four lanes; `d = 4` runs Φ's unrolled kernel.
    #[test]
    fn lane_kernels_match_the_one_lane_kernels_bitwise(
        raw in prop::collection::vec(-3000.0f64..3000.0, 16 * 32),
        zeros in prop::collection::vec(0u8..8, 1..40),
        levels in 1usize..6,
        mults in prop::collection::vec(1usize..9, 1..4),
        seed in 0u64..1000,
        rows in 4usize..48,
        cols in 1usize..96,
        d in 1usize..5,
    ) {
        let phi = SparseTernaryMatrix::random(rows, cols.max(rows), d, seed).unwrap();
        check_lanes::<2>(&raw, &zeros, levels, &mults, &phi);
        check_lanes::<3>(&raw, &zeros, levels, &mults, &phi);
        check_lanes::<4>(&raw, &zeros, levels, &mults, &phi);
    }
}

#[test]
fn lane_transforms_reject_a_short_output() {
    let x = vec![[1.0; 4]; 64];
    let mut out = vec![[0.0; 4]; 63];
    let mut scratch = DwtScratch::default();
    assert!(wavedec_lanes(&x, Wavelet::Db4, 3, &mut scratch, &mut out).is_err());
    assert!(waverec_lanes(&x, Wavelet::Db4, 3, &mut scratch, &mut out).is_err());
}

#[test]
fn dwt_wraps_more_than_once_at_n32_db4() {
    // n = 32 at 5 levels: the level inputs are 32, 16, 8, 4 and 2
    // samples long, so the 8-tap filter wraps up to four times.
    let x: Vec<f64> = (0..32)
        .map(|i| ((i * 37 % 23) as f64 - 11.0) * 0.7)
        .collect();
    for levels in 1..=5 {
        let c = wavedec_fresh(&x, Wavelet::Db4, levels);
        assert_eq!(bits(&ref_wavedec(&x, Wavelet::Db4, levels)), bits(&c));
        assert_eq!(
            bits(&ref_waverec(&c, Wavelet::Db4, levels)),
            bits(&waverec_fresh(&c, Wavelet::Db4, levels))
        );
    }
}
