//! Wavelet transforms: orthogonal DWT filter banks and the integer
//! à-trous quadratic-spline transform.
//!
//! Two distinct consumers in the pipeline:
//!
//! * **Compressed sensing** ([`wavedec_into`]/[`waverec_into`]) needs an
//!   orthonormal sparsifying basis Ψ — ECG is highly compressible in
//!   Daubechies wavelets, which is what makes CS recovery work
//!   (references \[4\], \[16\] of the paper).
//! * **Delineation** ([`AtrousQspline`]) uses the undecimated
//!   quadratic-spline dyadic transform of Mallat, as adapted to integer
//!   arithmetic by Rincón et al. (BSN 2009, reference \[12\]): the filter
//!   bank `h = [1,3,3,1]/8`, `g = [1,-1]` turns wave peaks into
//!   zero-crossings flanked by modulus maxima.

use crate::{Result, SigprocError};

/// Supported orthogonal wavelet families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Wavelet {
    /// Haar (2 taps) — cheapest, used for ablations.
    Haar,
    /// Daubechies with 2 vanishing moments (4 taps).
    Db2,
    /// Daubechies with 4 vanishing moments (8 taps) — the default ECG
    /// sparsifying basis.
    Db4,
}

// `len` is the filter length of a wavelet family; an "empty wavelet"
// does not exist, so no `is_empty` counterpart.
#[allow(clippy::len_without_is_empty)]
impl Wavelet {
    /// Scaling (low-pass decomposition) filter coefficients.
    pub fn scaling_filter(self) -> &'static [f64] {
        match self {
            Wavelet::Haar => &HAAR,
            Wavelet::Db2 => &DB2,
            Wavelet::Db4 => &DB4,
        }
    }

    /// Filter length.
    pub fn len(self) -> usize {
        self.scaling_filter().len()
    }

    /// Wavelet (high-pass) decomposition filter via the quadrature
    /// mirror relation `g[n] = (-1)^n h[L-1-n]`, precomputed as a
    /// static table.
    pub fn wavelet_filter(self) -> &'static [f64] {
        match self {
            Wavelet::Haar => &HAAR_G,
            Wavelet::Db2 => &DB2_G,
            Wavelet::Db4 => &DB4_G,
        }
    }
}

const SQRT2_INV: f64 = core::f64::consts::FRAC_1_SQRT_2;
static HAAR: [f64; 2] = [SQRT2_INV, SQRT2_INV];
static DB2: [f64; 4] = [
    0.48296291314469025,
    0.836516303737469,
    0.22414386804185735,
    -0.12940952255092145,
];
static DB4: [f64; 8] = [
    0.23037781330885523,
    0.7148465705525415,
    0.6308807679295904,
    -0.02798376941698385,
    -0.18703481171888114,
    0.030841381835986965,
    0.032883011666982945,
    -0.010597401784997278,
];
static HAAR_G: [f64; 2] = qmf(&HAAR);
static DB2_G: [f64; 4] = qmf(&DB2);
static DB4_G: [f64; 8] = qmf(&DB4);

/// Quadrature mirror of a scaling filter, `g[n] = (-1)^n h[L-1-n]`
/// (negation is exact, so the table equals the `±1.0 · h` product).
const fn qmf<const L: usize>(h: &[f64; L]) -> [f64; L] {
    let mut g = [0.0; L];
    let mut n = 0;
    while n < L {
        g[n] = if n % 2 == 0 {
            h[L - 1 - n]
        } else {
            -h[L - 1 - n]
        };
        n += 1;
    }
    g
}

/// Reusable working memory for [`wavedec_into`] and [`waverec_into`]
/// and their lane forms: the periodically extended level input of the
/// analysis bank and the approximation ping-pong buffers of the
/// synthesis bank. Any size and lane count may follow any other;
/// buffers only ever grow.
#[derive(Debug, Clone, Default)]
pub struct DwtScratch {
    ext: Vec<f64>,
    approx: Vec<f64>,
    next: Vec<f64>,
}

fn check_dwt_args(n: usize, levels: usize, what: &'static str) -> Result<()> {
    // Below the word size, so `1 << levels` cannot overflow.
    if levels == 0 || levels >= usize::BITS as usize {
        return Err(SigprocError::InvalidParameter {
            what: "levels",
            detail: "must be at least 1 and below the word size",
        });
    }
    if n == 0 || !n.is_multiple_of(1 << levels) {
        return Err(SigprocError::InvalidLength { what, got: n });
    }
    Ok(())
}

/// `Ok` when a lane transform's output holds as many rows as its input.
fn check_lane_out(n: usize, out: usize, what: &'static str) -> Result<()> {
    if out != n {
        return Err(SigprocError::ShapeMismatch {
            what,
            expected: n,
            got: out,
        });
    }
    Ok(())
}

/// Multi-level periodized DWT (analysis) into a caller-owned buffer
/// (resized to `x.len()`), with reusable `scratch`: a warm caller
/// allocates nothing. Coefficients are packed as
/// `[a_L | d_L | d_{L-1} | ... | d_1]`, total length = input length.
/// It is the orthonormal analysis operator Ψᵀ, [`waverec_into`] its
/// exact inverse (and adjoint) Ψ, and [`wavedec_lanes`] at one lane.
///
/// Each level copies its input into a periodically extended buffer,
/// so every filter tap is a plain forward read with no `% n` wrap;
/// the taps and their summation order are those of the textbook
/// periodized loop, so the output is bit-identical to it.
///
/// # Errors
///
/// The input length must be divisible by `2^levels` and `levels ≥ 1`.
pub fn wavedec_into(
    x: &[f64],
    wavelet: Wavelet,
    levels: usize,
    scratch: &mut DwtScratch,
    out: &mut Vec<f64>,
) -> Result<()> {
    out.resize(x.len(), 0.0);
    wavedec_lanes(
        x.as_chunks::<1>().0,
        wavelet,
        levels,
        scratch,
        out.as_chunks_mut::<1>().0,
    )
}

/// [`wavedec_into`] on `K` signals at once, lanes innermost: `x[i][l]`
/// is sample `i` of lane `l`, and lane `l` of `out` (which must hold
/// `x.len()` rows; every entry is overwritten) is bit for bit
/// [`wavedec_into`] of lane `l` alone.
///
/// # Errors
///
/// Same length constraints as [`wavedec_into`], plus
/// [`SigprocError::ShapeMismatch`] when `out.len() != x.len()`.
pub fn wavedec_lanes<const K: usize>(
    x: &[[f64; K]],
    wavelet: Wavelet,
    levels: usize,
    scratch: &mut DwtScratch,
    out: &mut [[f64; K]],
) -> Result<()> {
    check_dwt_args(
        x.len(),
        levels,
        "wavedec input (must be divisible by 2^levels)",
    )?;
    check_lane_out(x.len(), out.len(), "wavedec output")?;
    match wavelet {
        Wavelet::Haar => analysis_bank(x, &HAAR, &HAAR_G, levels, &mut scratch.ext, out),
        Wavelet::Db2 => analysis_bank(x, &DB2, &DB2_G, levels, &mut scratch.ext, out),
        Wavelet::Db4 => analysis_bank(x, &DB4, &DB4_G, levels, &mut scratch.ext, out),
    }
    Ok(())
}

/// The analysis bank for an `L`-tap filter pair on `K` lanes. Level
/// `ℓ` reads its input (`x`, then the previous level's approximation
/// already stored in `out[..n_in]`) through the extended copy `ext`
/// and writes `a_ℓ` to `out[..n_in/2]` and `d_ℓ` to `out[n_in/2..n_in]`
/// — the packed layout falls out with no final gather.
fn analysis_bank<const L: usize, const K: usize>(
    x: &[[f64; K]],
    h: &[f64; L],
    g: &[f64; L],
    levels: usize,
    ext: &mut Vec<f64>,
    out: &mut [[f64; K]],
) {
    let mut n_in = x.len();
    for level in 0..levels {
        let src = if level == 0 { x } else { &out[..n_in] };
        // The last output k = n_in/2 - 1 reads up to index n_in + L - 3;
        // levels shorter than the filter wrap more than once.
        let need = n_in + L - 2;
        ext.clear();
        while ext.len() < need * K {
            let take = (need - ext.len() / K).min(n_in);
            ext.extend_from_slice(src[..take].as_flattened());
        }
        let (a, d) = out[..n_in].split_at_mut(n_in / 2);
        for ((win, ak), dk) in ext.as_chunks::<K>().0.windows(L).step_by(2).zip(a).zip(d) {
            let mut sa = [0.0; K];
            let mut sd = [0.0; K];
            for ((&hj, &gj), xj) in h.iter().zip(g).zip(win) {
                for ((sa, sd), &x) in sa.iter_mut().zip(&mut sd).zip(xj) {
                    *sa += hj * x;
                    *sd += gj * x;
                }
            }
            *ak = sa;
            *dk = sd;
        }
        n_in /= 2;
    }
}

/// Multi-level periodized inverse DWT (synthesis), inverse of
/// [`wavedec_into`] with the same `wavelet` and `levels`, into a
/// caller-owned buffer (resized to `coeffs.len()`), with reusable
/// `scratch`: a warm caller allocates nothing. This is
/// [`waverec_lanes`] at one lane.
///
/// Each level gathers: every output keeps one register accumulator
/// and adds the `L/2` filter terms that reach it, in the `(k, j)`
/// order of the textbook scatter loop
/// `out[(2k+j) mod n] += h[j]·a[k] + g[j]·d[k]`, so the result is
/// bit-identical to it.
///
/// # Errors
///
/// Same length constraints as [`wavedec_into`].
pub fn waverec_into(
    coeffs: &[f64],
    wavelet: Wavelet,
    levels: usize,
    scratch: &mut DwtScratch,
    out: &mut Vec<f64>,
) -> Result<()> {
    out.resize(coeffs.len(), 0.0);
    waverec_lanes(
        coeffs.as_chunks::<1>().0,
        wavelet,
        levels,
        scratch,
        out.as_chunks_mut::<1>().0,
    )
}

/// [`waverec_into`] on `K` coefficient vectors at once, lanes
/// innermost (see [`wavedec_lanes`]): lane `l` of `out` (which must
/// hold `coeffs.len()` rows; every entry is overwritten) is bit for
/// bit [`waverec_into`] of lane `l` alone.
///
/// # Errors
///
/// Same length constraints as [`wavedec_into`], plus
/// [`SigprocError::ShapeMismatch`] when `out.len() != coeffs.len()`.
pub fn waverec_lanes<const K: usize>(
    coeffs: &[[f64; K]],
    wavelet: Wavelet,
    levels: usize,
    scratch: &mut DwtScratch,
    out: &mut [[f64; K]],
) -> Result<()> {
    check_dwt_args(
        coeffs.len(),
        levels,
        "waverec input (must be divisible by 2^levels)",
    )?;
    check_lane_out(coeffs.len(), out.len(), "waverec output")?;
    match wavelet {
        Wavelet::Haar => synthesis_bank(coeffs, &HAAR, &HAAR_G, levels, scratch, out),
        Wavelet::Db2 => synthesis_bank(coeffs, &DB2, &DB2_G, levels, scratch, out),
        Wavelet::Db4 => synthesis_bank(coeffs, &DB4, &DB4_G, levels, scratch, out),
    }
    Ok(())
}

/// The synthesis bank for an `L`-tap filter pair on `K` lanes: the
/// coarsest approximation is read straight from `coeffs`, intermediate
/// levels ping-pong through `scratch`, and the finest level lands in
/// `out`.
fn synthesis_bank<const L: usize, const K: usize>(
    coeffs: &[[f64; K]],
    h: &[f64; L],
    g: &[f64; L],
    levels: usize,
    scratch: &mut DwtScratch,
    out: &mut [[f64; K]],
) {
    let n = coeffs.len();
    let DwtScratch { approx, next, .. } = scratch;
    let mut offset = n >> levels;
    for lev in (0..levels).rev() {
        let dn = n >> (lev + 1);
        let out_n = dn * 2;
        let d = &coeffs[offset..offset + dn];
        offset += dn;
        let src = if lev + 1 == levels {
            &coeffs[..dn]
        } else {
            &approx.as_chunks::<K>().0[..dn]
        };
        let dst = if lev == 0 {
            &mut out[..]
        } else {
            next.resize(out_n * K, 0.0);
            &mut next.as_chunks_mut::<K>().0[..out_n]
        };
        synthesis_level(src, d, h, g, dst);
        if lev > 0 {
            core::mem::swap(approx, next);
        }
    }
}

/// One synthesis level on `K` lanes, `dst[i] = Σ h[j]·a[k] + g[j]·d[k]`
/// over the `(k, j)` with `(2k+j) mod out_n = i`: each output starts
/// from +0.0 and adds its terms in ascending `k` (ascending `j` within
/// a `k`), the order in which the scatter loop over `k`, then `j`,
/// reaches it.
///
/// With `out_n ≥ L`, output `2m` takes the even taps `j = 2t` and
/// output `2m+1` the odd taps `j = 2t+1`, each at `k = m − t` for
/// `t < L/2`, so ascending `k` is descending `t`. For `m < L/2 − 1` the
/// taps with `t > m` wrap to `k = m − t + out_n/2`, past every
/// unwrapped `k`, and come last.
fn synthesis_level<const L: usize, const K: usize>(
    a: &[[f64; K]],
    d: &[[f64; K]],
    h: &[f64; L],
    g: &[f64; L],
    dst: &mut [[f64; K]],
) {
    let out_n = dst.len();
    if out_n < L {
        return synthesis_level_short(a, d, h, g, dst);
    }
    let half = out_n / 2;
    let taps = L / 2;
    // Outputs `2m` and `2m+1` read the window `a[m+1−taps..=m]`, whose
    // offset `s` meets tap `t = taps−1−s`. Head: `m < taps − 1`, whose
    // window wraps.
    for m in 0..taps - 1 {
        let split = taps - 1 - m;
        let (mut even, mut odd) = ([0.0; K], [0.0; K]);
        for s in (split..taps).chain(0..split) {
            let k = (m + half + s + 1 - taps) % half;
            let t = taps - 1 - s;
            let taps = [h[2 * t], g[2 * t], h[2 * t + 1], g[2 * t + 1]];
            synthesis_terms(&mut even, &mut odd, taps, &a[k], &d[k]);
        }
        dst[2 * m] = even;
        dst[2 * m + 1] = odd;
    }
    // Steady state: the window is in range and ascending `k` is
    // ascending `s`.
    let steady = dst[2 * (taps - 1)..].chunks_exact_mut(2);
    for ((aw, dw), pair) in a.windows(taps).zip(d.windows(taps)).zip(steady) {
        let (aw, dw) = (&aw[..taps], &dw[..taps]);
        let (mut even, mut odd) = ([0.0; K], [0.0; K]);
        for s in 0..taps {
            let t = taps - 1 - s;
            let taps = [h[2 * t], g[2 * t], h[2 * t + 1], g[2 * t + 1]];
            synthesis_terms(&mut even, &mut odd, taps, &aw[s], &dw[s]);
        }
        pair[0] = even;
        pair[1] = odd;
    }
}

/// Adds one `k`'s terms to an output pair on every lane:
/// `even += he·a + ge·d` and `odd += ho·a + go·d` for
/// `[he, ge, ho, go] = taps`.
#[inline(always)]
fn synthesis_terms<const K: usize>(
    even: &mut [f64; K],
    odd: &mut [f64; K],
    [he, ge, ho, go]: [f64; 4],
    a: &[f64; K],
    d: &[f64; K],
) {
    for (((e, o), &a), &d) in even.iter_mut().zip(odd.iter_mut()).zip(a).zip(d) {
        *e += he * a + ge * d;
        *o += ho * a + go * d;
    }
}

/// [`synthesis_level`] for a level shorter than the filter, where one
/// `k` can reach an output more than once: the same rule, with each
/// output's terms found by walking every `(k, j)` in order.
fn synthesis_level_short<const L: usize, const K: usize>(
    a: &[[f64; K]],
    d: &[[f64; K]],
    h: &[f64; L],
    g: &[f64; L],
    dst: &mut [[f64; K]],
) {
    let out_n = dst.len();
    for (i, o) in dst.iter_mut().enumerate() {
        let mut acc = [0.0; K];
        for (k, (ak, dk)) in a.iter().zip(d).enumerate() {
            for j in 0..L {
                if (2 * k + j) % out_n == i {
                    for ((o, &a), &d) in acc.iter_mut().zip(ak).zip(dk) {
                        *o += h[j] * a + g[j] * d;
                    }
                }
            }
        }
        *o = acc;
    }
}

/// Integer à-trous quadratic-spline dyadic wavelet transform.
///
/// Produces the undecimated detail signals `w_1 … w_levels` (same
/// length as the input) using the integer filter pair
/// `h = [1,3,3,1] / 8` (division by arithmetic shift) and `g = [1,-1]`,
/// with holes (zeros) inserted between taps at deeper scales.
///
/// Each detail stream is delay-compensated so that the zero-crossing
/// associated with a peak in the input appears *at* the peak index
/// (± rounding): the theoretical filter-bank delay at scale `k` is
/// `2^k - 3/2` for `w_k` (see Rincón et al., BSN 2009); rounding to
/// `2^k - 1` keeps sub-sample error below one sample at every scale.
#[derive(Debug, Clone)]
pub struct AtrousQspline {
    levels: usize,
}

/// Reusable working memory for [`AtrousQspline::transform_into`]: the
/// approximation ping-pong buffers of the filter bank.
#[derive(Debug, Clone, Default)]
pub struct AtrousScratch {
    approx: Vec<i64>,
    next: Vec<i64>,
}

impl AtrousQspline {
    /// Transform computing `levels` dyadic scales (1 ≤ levels ≤ 8).
    ///
    /// # Errors
    ///
    /// Fails if `levels` is 0 or greater than 8.
    pub fn new(levels: usize) -> Result<Self> {
        if levels == 0 || levels > 8 {
            return Err(SigprocError::InvalidParameter {
                what: "levels",
                detail: "must be in 1..=8",
            });
        }
        Ok(AtrousQspline { levels })
    }

    /// Number of computed scales.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Computes the detail signals `w_1 … w_levels`, index 0 = scale 2¹.
    ///
    /// Allocates every buffer; the per-beat streaming path should
    /// prefer [`AtrousQspline::transform_into`] with reused scratch.
    pub fn transform(&self, x: &[i32]) -> Vec<Vec<i32>> {
        let mut scratch = AtrousScratch::default();
        let mut details = Vec::new();
        self.transform_into(x, &mut scratch, &mut details);
        details
    }

    /// [`AtrousQspline::transform`] into caller-owned buffers:
    /// `details` is resized to `levels` signals of `x.len()` samples
    /// and `scratch` holds the approximation ping-pong buffers, so a
    /// warm caller allocates nothing. Outputs are bit-identical to
    /// [`AtrousQspline::transform`].
    ///
    /// Each level runs as two loops: a short clamped prologue for the
    /// indices whose filter taps would reach before the segment, and a
    /// branch-free steady-state sweep (the à-trous delay `2^{k+1}-1`
    /// is at least the hole spacing `2^k`, so the delay-compensated
    /// detail needs no boundary clamp at all).
    pub fn transform_into(
        &self,
        x: &[i32],
        scratch: &mut AtrousScratch,
        details: &mut Vec<Vec<i32>>,
    ) {
        let n = x.len();
        details.resize_with(self.levels, Vec::new);
        let approx = &mut scratch.approx;
        let next = &mut scratch.next;
        approx.clear();
        approx.extend(x.iter().map(|&v| v as i64));
        for (k, wk) in details.iter_mut().enumerate() {
            let hole = 1usize << k; // spacing between taps at this level
            let delay = (1usize << (k + 1)) - 1;
            // g = [1, -1] with holes, fused with the delay
            // compensation: wk[i] = a[i+delay] - a[i+delay-hole]
            // (i+delay ≥ delay ≥ hole, so the clamped-prologue case of
            // the unfused form never occurs; the tail stays zero as
            // before).
            wk.clear();
            wk.resize(n, 0);
            for (i, wv) in wk.iter_mut().enumerate().take(n.saturating_sub(delay)) {
                let j = i + delay;
                *wv = (approx[j] - approx[j - hole]) as i32;
            }
            // h = [1,3,3,1]/8 with holes: clamped prologue, then a
            // branch-free sweep.
            next.clear();
            next.resize(n, 0);
            let h3 = 3 * hole;
            for (i, a) in next.iter_mut().enumerate().take(h3.min(n)) {
                let tap = |off: usize| approx[i.saturating_sub(off)];
                let s = tap(0) + 3 * tap(hole) + 3 * tap(2 * hole) + tap(h3);
                // Round-to-nearest shift keeps the integer pipeline stable.
                *a = (s + 4) >> 3;
            }
            for (i, a) in next.iter_mut().enumerate().skip(h3) {
                let s =
                    approx[i] + 3 * approx[i - hole] + 3 * approx[i - 2 * hole] + approx[i - h3];
                *a = (s + 4) >> 3;
            }
            core::mem::swap(approx, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::tests::awkward_values;
    use proptest::prelude::*;

    /// The scatter synthesis level the gather kernel replaced, kept as
    /// its oracle: `dst[(2k+j) mod out_n] += h[j]·a[k] + g[j]·d[k]` over
    /// `k` ascending, `j` ascending, a wrap-free steady state first.
    fn scatter_level<const L: usize>(
        a: &[f64],
        d: &[f64],
        h: &[f64; L],
        g: &[f64; L],
        dst: &mut [f64],
    ) {
        let out_n = dst.len();
        dst.fill(0.0);
        // k < steady touches only 2k+L-1 < out_n: no wrap.
        let steady = if out_n >= L {
            ((out_n - L) / 2 + 1).min(a.len())
        } else {
            0
        };
        for (k, (&ak, &dk)) in a[..steady].iter().zip(&d[..steady]).enumerate() {
            for (o, (&hj, &gj)) in dst[2 * k..2 * k + L].iter_mut().zip(h.iter().zip(g)) {
                *o += hj * ak + gj * dk;
            }
        }
        for (k, (&ak, &dk)) in a.iter().zip(d).enumerate().skip(steady) {
            for j in 0..L {
                dst[(2 * k + j) % out_n] += h[j] * ak + g[j] * dk;
            }
        }
    }

    /// [`waverec_into`] through [`scatter_level`].
    fn scatter_waverec(coeffs: &[f64], wavelet: Wavelet, levels: usize) -> Vec<f64> {
        fn bank<const L: usize>(c: &[f64], h: &[f64; L], g: &[f64; L], levels: usize) -> Vec<f64> {
            let n = c.len();
            let mut approx = c[..n >> levels].to_vec();
            let mut offset = n >> levels;
            for lev in (0..levels).rev() {
                let dn = n >> (lev + 1);
                let mut next = vec![0.0; 2 * dn];
                scatter_level(&approx, &c[offset..offset + dn], h, g, &mut next);
                offset += dn;
                approx = next;
            }
            approx
        }
        match wavelet {
            Wavelet::Haar => bank(coeffs, &HAAR, &HAAR_G, levels),
            Wavelet::Db2 => bank(coeffs, &DB2, &DB2_G, levels),
            Wavelet::Db4 => bank(coeffs, &DB4, &DB4_G, levels),
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`wavedec_into`] into a fresh vector.
    fn wavedec_fresh(x: &[f64], wavelet: Wavelet, levels: usize) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        wavedec_into(x, wavelet, levels, &mut DwtScratch::default(), &mut out)?;
        Ok(out)
    }

    /// [`waverec_into`] into a fresh vector.
    fn waverec_fresh(coeffs: &[f64], wavelet: Wavelet, levels: usize) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        waverec_into(
            coeffs,
            wavelet,
            levels,
            &mut DwtScratch::default(),
            &mut out,
        )?;
        Ok(out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Every family at levels 1..=6 and window lengths `q·2^levels`
        // for q in 1..=5: the coarse levels of the short windows are
        // shorter than the Db2 and Db4 filters. One scratch serves
        // every shape in turn.
        #[test]
        fn gather_synthesis_matches_the_scatter_oracle_bitwise(seed in 0u64..u64::MAX) {
            let mut scratch = DwtScratch::default();
            let mut out = vec![f64::NAN; 5];
            for w in [Wavelet::Haar, Wavelet::Db2, Wavelet::Db4] {
                for levels in 1..=6 {
                    for q in 1..=5 {
                        let n = q << levels;
                        let c = awkward_values(n, seed ^ (n as u64));
                        waverec_into(&c, w, levels, &mut scratch, &mut out).unwrap();
                        prop_assert_eq!(
                            bits(&scatter_waverec(&c, w, levels)),
                            bits(&out),
                            "{:?} L{} n={}", w, levels, n
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_levels_are_typed_errors() {
        let x = [1.0; 512];
        for levels in [64, 73, usize::MAX] {
            for got in [
                wavedec_fresh(&x, Wavelet::Db4, levels),
                waverec_fresh(&x, Wavelet::Db4, levels),
            ] {
                assert!(
                    matches!(
                        got,
                        Err(SigprocError::InvalidParameter { what: "levels", .. })
                    ),
                    "levels {levels}: {got:?}"
                );
            }
        }
    }

    fn test_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * core::f64::consts::PI * 3.0 * t).sin()
                    + 0.5 * (2.0 * core::f64::consts::PI * 17.0 * t).cos()
            })
            .collect()
    }

    #[test]
    fn perfect_reconstruction_all_wavelets() {
        let x = test_signal(256);
        for w in [Wavelet::Haar, Wavelet::Db2, Wavelet::Db4] {
            for levels in 1..=5 {
                let c = wavedec_fresh(&x, w, levels).unwrap();
                let y = waverec_fresh(&c, w, levels).unwrap();
                let err: f64 = x
                    .iter()
                    .zip(&y)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                assert!(err < 1e-9, "{w:?} L{levels}: max err {err}");
            }
        }
    }

    #[test]
    fn transform_preserves_energy() {
        // Orthonormality: ||Wx|| == ||x||.
        let x = test_signal(512);
        let c = wavedec_fresh(&x, Wavelet::Db4, 5).unwrap();
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ec: f64 = c.iter().map(|v| v * v).sum();
        assert!((ex - ec).abs() / ex < 1e-10);
    }

    #[test]
    fn adjoint_property_holds() {
        // <Wx, y> == <x, W^T y> where W^T = waverec (orthonormal).
        let x = test_signal(128);
        let y: Vec<f64> = (0..128).map(|i| ((i * 29 + 7) % 13) as f64 - 6.0).collect();
        let wx = wavedec_fresh(&x, Wavelet::Db4, 4).unwrap();
        let wty = waverec_fresh(&y, Wavelet::Db4, 4).unwrap();
        let lhs: f64 = wx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&wty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn smooth_signal_is_sparse_in_db4() {
        // An ECG-like smooth bump: most coefficient energy concentrates
        // in few coefficients.
        let n = 512;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let d = (i as f64 - 256.0) / 12.0;
                (-d * d / 2.0).exp()
            })
            .collect();
        let mut c = wavedec_fresh(&x, Wavelet::Db4, 5).unwrap();
        let total: f64 = c.iter().map(|v| v * v).sum();
        c.sort_by(|a, b| (b * b).partial_cmp(&(a * a)).unwrap());
        let top32: f64 = c[..32].iter().map(|v| v * v).sum();
        assert!(
            top32 / total > 0.999,
            "top 32 of 512 coeffs must hold >99.9% energy, got {}",
            top32 / total
        );
    }

    #[test]
    fn filters_are_quadrature_mirror() {
        for w in [Wavelet::Haar, Wavelet::Db2, Wavelet::Db4] {
            let h = w.scaling_filter();
            let g = w.wavelet_filter();
            // Orthogonality of h and g.
            let dot: f64 = h.iter().zip(g).map(|(a, b)| a * b).sum();
            assert!(dot.abs() < 1e-12, "{w:?}");
            // Unit norm.
            let nh: f64 = h.iter().map(|v| v * v).sum();
            assert!((nh - 1.0).abs() < 1e-10, "{w:?}");
            // The static table is bit for bit the runtime QMF product.
            let l = h.len();
            for (n, &gn) in g.iter().enumerate() {
                let sign = if n % 2 == 0 { 1.0 } else { -1.0 };
                assert_eq!(gn.to_bits(), (sign * h[l - 1 - n]).to_bits(), "{w:?}");
            }
        }
    }

    #[test]
    fn rejects_bad_lengths() {
        let x = vec![0.0; 100]; // not divisible by 2^3
        assert!(wavedec_fresh(&x, Wavelet::Haar, 3).is_err());
        assert!(wavedec_fresh(&[], Wavelet::Haar, 1).is_err());
        assert!(wavedec_fresh(&x, Wavelet::Haar, 0).is_err());
        assert!(waverec_fresh(&x, Wavelet::Haar, 3).is_err());
    }

    #[test]
    fn atrous_zero_crossing_at_peak() {
        // Symmetric triangular peak at index 100: w_k must cross zero
        // within ±2 samples of it at the small scales.
        let n = 256usize;
        let x: Vec<i32> = (0..n)
            .map(|i| {
                let d = (i as i32 - 100).abs();
                (30 - d).max(0) * 40
            })
            .collect();
        let t = AtrousQspline::new(4).unwrap();
        let details = t.transform(&x);
        for (k, w) in details.iter().enumerate().take(3) {
            // find sign change from + to - near the peak
            let mut crossing = None;
            for i in 80..120 {
                if w[i] > 0 && w[i + 1] <= 0 {
                    crossing = Some(i);
                    break;
                }
            }
            let c = crossing.unwrap_or(0) as i32;
            assert!(
                (c - 100).abs() <= 2 + k as i32,
                "scale {} crossing at {c}, want ≈100",
                k + 1
            );
        }
    }

    #[test]
    fn atrous_scales_smooth_progressively() {
        // High-frequency noise should fade at deeper scales.
        let mut state = 99u32;
        let x: Vec<i32> = (0..512)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 24) as i32) - 128
            })
            .collect();
        let t = AtrousQspline::new(5).unwrap();
        let d = t.transform(&x);
        let rms: Vec<f64> = d
            .iter()
            .map(|w| {
                (w.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>() / w.len() as f64)
                    .sqrt()
            })
            .collect();
        // Noise energy is strongest at scale 1-2 and must drop by scale 5.
        assert!(
            rms[4] < rms[0],
            "deep-scale rms {} must be below scale-1 rms {}",
            rms[4],
            rms[0]
        );
    }

    #[test]
    fn atrous_rejects_bad_levels() {
        assert!(AtrousQspline::new(0).is_err());
        assert!(AtrousQspline::new(9).is_err());
    }
}
