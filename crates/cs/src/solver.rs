//! CS reconstruction: FISTA over a wavelet dictionary, one lead at a
//! time or the leads of one window jointly.
//!
//! Solves `min_a ½‖y − ΦΨa‖² + λ‖a‖₁` where Ψ is an orthonormal
//! Daubechies synthesis operator, then returns `x̂ = Ψâ`. The fast
//! iterative shrinkage-thresholding algorithm (Beck & Teboulle 2009)
//! is the standard decoder in the ECG-CS literature the paper builds
//! on; an optional wavelet-tree constraint implements the connected
//! tree model of Duarte et al. (reference \[17\]).
//!
//! Two options cut the iterations a solve needs to reach its ℓ1
//! optimum. Gradient restart (O'Donoghue & Candès 2015) drops the
//! momentum whenever it overshoots. λ-continuation (Hale, Yin & Zhang's
//! fixed-point continuation, 2008) solves a short sequence of problems
//! with shrinking λ, each started from the last one's solution, and
//! stops on the movement tolerance only at the target λ: the large-λ
//! stages find the sparse support cheaply, and the final stage refines
//! it. The gateway runs both ([`FistaConfig`]'s `Default` runs neither,
//! which keeps the historical iterate sequence).
//!
//! The Lipschitz constant the iteration steps by depends only on Φ and
//! the dictionary, so [`Fista::solve_with`] takes it from the caller:
//! the gateway's matrix cache computes it once per matrix
//! ([`Fista::lipschitz`]).
//!
//! [`Fista::solve_joint`] recovers the leads of one window together
//! (Mamaghanian et al., reference \[6\]): their wavelet supports
//! coincide, so an ℓ₂,₁ penalty shrinks coefficient `i` of every lead
//! as one group, and a wave strong in one lead rescues its siblings.

use crate::encoder::CsEncoder;
use crate::{CsError, Result};
use wbsn_sigproc::wavelet::{
    wavedec_into, wavedec_lanes, waverec_into, waverec_lanes, DwtScratch, Wavelet,
};
use wbsn_sigproc::SparseTernaryMatrix;

/// FISTA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FistaConfig {
    /// Sparsifying wavelet.
    pub wavelet: Wavelet,
    /// Decomposition levels (window length must divide by `2^levels`).
    pub levels: usize,
    /// λ as a fraction of `‖Aᵀy‖∞` (adaptive regularization).
    pub lambda_rel: f64,
    /// Maximum iterations, over every continuation stage together.
    pub max_iters: usize,
    /// Relative-change stopping tolerance, tested at the target λ.
    pub tol: f64,
    /// Adaptive (gradient) restart, O'Donoghue & Candès 2015: reset
    /// the momentum whenever it points against the descent direction
    /// (`⟨z − a⁺, a⁺ − a⟩ > 0`). Suppresses FISTA's objective ripples,
    /// giving near-monotone, locally linear convergence — which is
    /// what lets the movement tolerance [`FistaConfig::tol`] fire
    /// close to the optimum instead of on a ripple. `false` preserves
    /// the historical plain-FISTA iterate sequence bit for bit.
    pub restart: bool,
    /// Enforce the parent-child wavelet tree model after shrinkage.
    pub tree_model: bool,
    /// λ-continuation schedule; `None` solves at the target λ from the
    /// first iteration.
    pub continuation: Option<Continuation>,
}

/// A λ-continuation schedule (Hale, Yin & Zhang 2008).
///
/// The solve starts at `λ = max(λ_target, start_rel·‖Aᵀy‖∞)`. While
/// `λ > λ_target`, each time the relative change falls below
/// `stage_tol` the stage ends: `λ ← max(factor·λ, λ_target)` and the
/// momentum resets. [`FistaConfig::tol`] applies only at `λ_target`,
/// and [`FistaConfig::max_iters`] caps all stages together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Continuation {
    /// First stage's λ as a fraction of `‖Aᵀy‖∞`; at least
    /// [`FistaConfig::lambda_rel`].
    pub start_rel: f64,
    /// Factor λ shrinks by from one stage to the next, in `(0, 1)`.
    pub factor: f64,
    /// Relative-change tolerance that ends a stage above the target λ.
    pub stage_tol: f64,
}

impl FistaConfig {
    /// `Ok` when the configuration describes a solve that can run:
    /// `levels` in `1..usize::BITS` (so `1 << levels` cannot overflow),
    /// `max_iters` at least 1, `lambda_rel` and `tol` finite and
    /// non-negative, and a continuation schedule that
    /// [`validate_continuation`] accepts. `tol == 0` is valid: it runs
    /// every one of `max_iters` unless the iterate reaches an exact
    /// fixed point.
    fn validate(&self) -> Result<()> {
        if self.levels == 0 || self.levels >= usize::BITS as usize {
            return invalid("levels", "must be at least 1 and below the word size");
        }
        if self.max_iters == 0 {
            return invalid("max_iters", "must be at least 1");
        }
        if !(self.lambda_rel.is_finite() && self.lambda_rel >= 0.0) {
            return invalid("lambda_rel", "must be finite and non-negative");
        }
        if !(self.tol.is_finite() && self.tol >= 0.0) {
            return invalid("tol", "must be finite and non-negative");
        }
        match &self.continuation {
            Some(c) => validate_continuation(c, self.lambda_rel),
            None => Ok(()),
        }
    }
}

fn invalid(what: &'static str, detail: &str) -> Result<()> {
    Err(CsError::InvalidParameter {
        what,
        detail: detail.to_string(),
    })
}

/// A continuation schedule can run when `factor` lies in `(0, 1)` (so
/// λ shrinks and reaches the target), `start_rel` is finite and at
/// least `lambda_rel` (the schedule starts at or above the target),
/// and `stage_tol` is finite and non-negative.
fn validate_continuation(c: &Continuation, lambda_rel: f64) -> Result<()> {
    if !(c.factor > 0.0 && c.factor < 1.0) {
        return invalid("continuation.factor", "must lie in (0, 1)");
    }
    if !(c.start_rel.is_finite() && c.start_rel >= lambda_rel) {
        return invalid(
            "continuation.start_rel",
            "must be finite and at least lambda_rel",
        );
    }
    if !(c.stage_tol.is_finite() && c.stage_tol >= 0.0) {
        return invalid("continuation.stage_tol", "must be finite and non-negative");
    }
    Ok(())
}

impl Default for FistaConfig {
    fn default() -> Self {
        FistaConfig {
            wavelet: Wavelet::Db4,
            levels: 5,
            lambda_rel: 0.005,
            max_iters: 200,
            tol: 1e-5,
            restart: false,
            tree_model: false,
            continuation: None,
        }
    }
}

/// Windows a stream solve ([`Fista::solve_stream`]) steps side by side,
/// and the most leads a joint solve ([`Fista::solve_joint`]) takes.
/// Four `f64` lanes per coefficient fill two 128-bit registers on the
/// baseline x86-64 target, and every coefficient row of Φ, Ψ and the
/// shrinkage is read once for all of them.
const LANES: usize = 4;

/// Once a stream has no window left to start, its busy lanes finish
/// one window at a time as soon as fewer than this many are busy: a
/// four-lane step costs about three one-lane steps (Φ, Φᵀ and the
/// analysis bank run ≈2× cheaper per lane, the synthesis level not),
/// so one or two windows finish sooner alone.
const DEMOTE_BELOW: usize = 3;

/// Reusable working memory for [`Fista::solve_with`],
/// [`Fista::solve_stream`] and [`Fista::solve_joint`]: the state of one
/// window, the state of four windows (or leads) solved side by side,
/// and one window's temporaries.
/// One scratch serves any number of streams and shapes in turn (a
/// gateway keeps one per solver thread, not per session); once warm,
/// the iteration loop allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct FistaScratch {
    /// One lane: [`Fista::solve_with`] and the short tails of a stream.
    one: LaneBufs,
    /// [`LANES`] lanes: the body of a stream, or a joint solve.
    wide: LaneBufs,
    /// One window's temporaries: `Aᵀy` when it enters a lane, its
    /// coefficients and `Ψa` when it leaves, and one lead's Φ and Φᵀ
    /// in a joint step.
    temp: WindowTemp,
}

impl FistaScratch {
    /// Empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        FistaScratch::default()
    }
}

/// The state of up to `K` windows, lanes innermost: each buffer holds
/// `K` values per coefficient, sample or measurement.
#[derive(Debug, Clone, Default)]
struct LaneBufs {
    dwt: DwtScratch,
    /// Signal domain: `Ψz`, then `Φᵀr`.
    sig: Vec<f64>,
    /// Measurement domain: `ΦΨz`, then the residual `r`.
    meas: Vec<f64>,
    /// Coefficient domain: the gradient `ΨᵀΦᵀr`.
    grad: Vec<f64>,
    /// Current iterate `a`.
    a: Vec<f64>,
    /// Next iterate `a⁺`.
    a_next: Vec<f64>,
    /// Extrapolated point `z`.
    z: Vec<f64>,
    /// The measurements `y`.
    y: Vec<f64>,
}

/// One window's temporaries while it enters or leaves a lane, or
/// while one lead's Φ or Φᵀ runs.
#[derive(Debug, Clone, Default)]
struct WindowTemp {
    dwt: DwtScratch,
    sig: Vec<f64>,
    coeffs: Vec<f64>,
}

/// `out = A v = Φ Ψ v`, through `sig`.
fn apply_a(
    phi: &SparseTernaryMatrix,
    w: Wavelet,
    lv: usize,
    v: &[f64],
    dwt: &mut DwtScratch,
    sig: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> Result<()> {
    waverec_into(v, w, lv, dwt, sig)?;
    phi.apply_into(sig, out);
    Ok(())
}

/// `out = Aᵀ r = Ψᵀ Φᵀ r` (Ψ orthonormal), through `sig`.
fn apply_at(
    phi: &SparseTernaryMatrix,
    w: Wavelet,
    lv: usize,
    r: &[f64],
    dwt: &mut DwtScratch,
    sig: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> Result<()> {
    phi.apply_t_into(r, sig);
    wavedec_into(sig, w, lv, dwt, out)?;
    Ok(())
}

/// One busy lane's scalar state: the caller's id for its window and
/// FISTA's bookkeeping, exactly the scalars of a one-window solve. A
/// joint solve keeps one for all its leads, in lane 0.
#[derive(Debug, Clone, Copy)]
struct Lane {
    id: usize,
    iters: usize,
    t: f64,
    prev_norm: f64,
    /// Whether `z == a` bit for bit: the next step is taken from the
    /// current iterate itself, with no momentum.
    from_a: bool,
    lambda: f64,
    target: f64,
}

impl Lane {
    /// A cold start whose λ schedule scales with `scale`: `‖Aᵀy‖∞` for
    /// one window, the largest group norm of `Aᵀy` for a joint one.
    fn start(id: usize, scale: f64, cfg: &FistaConfig) -> Self {
        let target = cfg.lambda_rel * scale;
        let lambda = match &cfg.continuation {
            Some(c) => target.max(c.start_rel * scale),
            None => target,
        };
        Lane {
            id,
            iters: 0,
            t: 1.0,
            prev_norm: 0.0,
            from_a: true,
            lambda,
            target,
        }
    }
}

/// Φ as the lanes of a step see it, and so how they couple. One matrix
/// serves lanes that are windows of their own (the stream solve); a
/// slice holds one matrix per lane for the leads of one window (the
/// joint solve). As a type, the coupling leaves no trace in the stream
/// step.
trait LanePhi<const K: usize> {
    /// Whether the lanes are the leads of one window.
    const JOINT: bool;
    /// `out = Φ x`, lane by lane.
    fn apply(&self, x: &[[f64; K]], out: &mut [[f64; K]], temp: &mut WindowTemp);
    /// `out = Φᵀ r`, lane by lane.
    fn apply_t(&self, r: &[[f64; K]], out: &mut [[f64; K]], temp: &mut WindowTemp);
}

impl<const K: usize> LanePhi<K> for SparseTernaryMatrix {
    const JOINT: bool = false;

    fn apply(&self, x: &[[f64; K]], out: &mut [[f64; K]], _: &mut WindowTemp) {
        self.apply_lanes(x, out);
    }

    fn apply_t(&self, r: &[[f64; K]], out: &mut [[f64; K]], _: &mut WindowTemp) {
        self.apply_t_lanes(r, out);
    }
}

impl<const K: usize> LanePhi<K> for [&SparseTernaryMatrix] {
    const JOINT: bool = true;

    fn apply(&self, x: &[[f64; K]], out: &mut [[f64; K]], temp: &mut WindowTemp) {
        per_lane(self, x, out, temp, SparseTernaryMatrix::apply_into);
    }

    fn apply_t(&self, r: &[[f64; K]], out: &mut [[f64; K]], temp: &mut WindowTemp) {
        per_lane(self, r, out, temp, SparseTernaryMatrix::apply_t_into);
    }
}

/// Lane `l` of `out` is `op(phis[l], lane l of x)`, through `temp`'s
/// one-window buffers; a lane with no matrix gets zeros.
fn per_lane<const K: usize>(
    phis: &[&SparseTernaryMatrix],
    x: &[[f64; K]],
    out: &mut [[f64; K]],
    temp: &mut WindowTemp,
    op: fn(&SparseTernaryMatrix, &[f64], &mut Vec<f64>),
) {
    for l in 0..K {
        let Some(phi) = phis.get(l) else {
            for row in out.iter_mut() {
                row[l] = 0.0;
            }
            continue;
        };
        temp.sig.clear();
        temp.sig.extend(x.iter().map(|row| row[l]));
        op(phi, &temp.sig, &mut temp.coeffs);
        for (row, &v) in out.iter_mut().zip(&temp.coeffs) {
            row[l] = v;
        }
    }
}

/// `K` windows that share Φ and the step, one per lane, or the `K` or
/// fewer leads of one window. Every vector operation runs on all `K`
/// lanes; an idle lane holds zeros, which every step maps to zeros.
struct Lanes<'s, const K: usize> {
    bufs: &'s mut LaneBufs,
    lanes: [Option<Lane>; K],
}

impl<'s, const K: usize> Lanes<'s, K> {
    /// Sizes `bufs` for windows of `n` samples and `m` measurements,
    /// every lane idle.
    fn new(bufs: &'s mut LaneBufs, n: usize, m: usize) -> Self {
        for (v, len) in [(&mut bufs.a, n), (&mut bufs.z, n), (&mut bufs.y, m)] {
            v.clear();
            v.resize(len * K, 0.0);
        }
        for (v, len) in [
            (&mut bufs.sig, n),
            (&mut bufs.grad, n),
            (&mut bufs.a_next, n),
            (&mut bufs.meas, m),
        ] {
            v.resize(len * K, 0.0);
        }
        Lanes {
            bufs,
            lanes: [None; K],
        }
    }

    fn busy(&self) -> usize {
        self.lanes.iter().flatten().count()
    }

    /// Starts window `id` in idle lane `l`: checks `y`, finds its
    /// `‖Aᵀy‖∞` (and so its λ schedule) through the one-lane kernels,
    /// and copies `y` in. The lane's iterates are already zero.
    #[expect(
        clippy::too_many_arguments,
        reason = "a lane start takes the solver, Φ, its Lipschitz constant, scratch, the lane, the window id and its measurements"
    )]
    fn load(
        &mut self,
        fista: &Fista,
        phi: &SparseTernaryMatrix,
        lipschitz: f64,
        temp: &mut WindowTemp,
        l: usize,
        id: usize,
        y: &[f64],
    ) -> Result<()> {
        fista.check_input(phi, y, lipschitz)?;
        let cfg = &fista.cfg;
        apply_at(
            phi,
            cfg.wavelet,
            cfg.levels,
            y,
            &mut temp.dwt,
            &mut temp.sig,
            &mut temp.coeffs,
        )?;
        let linf = temp.coeffs.iter().fold(0.0f64, |mx, &v| mx.max(v.abs()));
        self.put_y(l, y);
        self.lanes[l] = Some(Lane::start(id, linf, cfg));
        Ok(())
    }

    /// Copies measurements `y` into lane `l`.
    fn put_y(&mut self, l: usize, y: &[f64]) {
        for (row, &v) in self.bufs.y.as_chunks_mut::<K>().0.iter_mut().zip(y) {
            row[l] = v;
        }
    }

    /// Frees lane `l` and returns its window's id and solve.
    fn take(
        &mut self,
        l: usize,
        cfg: &FistaConfig,
        temp: &mut WindowTemp,
    ) -> Option<(usize, Result<FistaSolve>)> {
        let lane = self.lanes[l].take()?;
        let solve = self.drain(l, cfg, temp).map(|x| FistaSolve {
            x,
            iters: lane.iters,
        });
        Some((lane.id, solve))
    }

    /// Lane `l`'s samples, `x̂ = Ψa`, synthesised through the one-lane
    /// kernel into a fresh vector; the lane is zeroed either way.
    fn drain(&mut self, l: usize, cfg: &FistaConfig, temp: &mut WindowTemp) -> Result<Vec<f64>> {
        temp.coeffs.clear();
        temp.coeffs
            .extend(self.bufs.a.as_chunks::<K>().0.iter().map(|row| row[l]));
        let mut x = Vec::with_capacity(temp.coeffs.len());
        let synth = waverec_into(&temp.coeffs, cfg.wavelet, cfg.levels, &mut temp.dwt, &mut x);
        for buf in [&mut self.bufs.a, &mut self.bufs.z, &mut self.bufs.y] {
            for row in buf.as_chunks_mut::<K>().0 {
                row[l] = 0.0;
            }
        }
        synth?;
        Ok(x)
    }

    /// Moves lane `l`'s window to a one-lane solve over `one` and runs
    /// it there to its stop: its iterates, measurements and scalars
    /// carry over exactly, so it continues bit for bit where it was.
    fn finish_alone(
        &mut self,
        l: usize,
        one: &mut LaneBufs,
        cfg: &FistaConfig,
        phi: &SparseTernaryMatrix,
        step: f64,
        temp: &mut WindowTemp,
    ) -> Option<(usize, Result<FistaSolve>)> {
        let lane = self.lanes[l].take()?;
        let mut alone = Lanes::<1>::new(one, phi.cols(), phi.rows());
        for (to, from) in [
            (&mut alone.bufs.a, &mut self.bufs.a),
            (&mut alone.bufs.z, &mut self.bufs.z),
            (&mut alone.bufs.y, &mut self.bufs.y),
        ] {
            for (v, row) in to.iter_mut().zip(from.as_chunks_mut::<K>().0) {
                *v = core::mem::take(&mut row[l]);
            }
        }
        alone.lanes[0] = Some(lane);
        loop {
            match alone.step(cfg, phi, step, temp) {
                Ok(0) => {}
                Ok(_) => return alone.take(0, cfg, temp),
                Err(e) => return Some((lane.id, Err(e))),
            }
        }
    }

    /// One FISTA iteration on every lane. Independent lanes each run
    /// exactly the scalar sequence of operations of a one-window solve.
    /// Joint lanes share lane 0's scalars: one threshold and a group
    /// shrink, and one momentum, restart test and stop test on sums
    /// taken across the leads. Returns the lanes whose window stopped,
    /// one bit per lane (lane 0 for a joint solve).
    fn step<P: LanePhi<K> + ?Sized>(
        &mut self,
        cfg: &FistaConfig,
        phi: &P,
        step: f64,
        temp: &mut WindowTemp,
    ) -> Result<u32> {
        let (w, lv) = (cfg.wavelet, cfg.levels);
        let n = self.bufs.a.len() / K;
        let LaneBufs {
            dwt,
            sig,
            meas,
            grad,
            a,
            a_next,
            z,
            y,
        } = &mut *self.bufs;
        let sig = sig.as_chunks_mut::<K>().0;
        let meas = meas.as_chunks_mut::<K>().0;
        let grad = grad.as_chunks_mut::<K>().0;
        let a_next = a_next.as_chunks_mut::<K>().0;
        let z = z.as_chunks_mut::<K>().0;
        // r = A z − y, then ∇ = Aᵀ r.
        waverec_lanes(z, w, lv, dwt, sig)?;
        phi.apply(sig, meas, temp);
        for (p, q) in meas.iter_mut().zip(y.as_chunks::<K>().0) {
            *p = core::array::from_fn(|l| p[l] - q[l]);
        }
        phi.apply_t(meas, sig, temp);
        wavedec_lanes(sig, w, lv, dwt, grad)?;
        let thresh: [f64; K] =
            core::array::from_fn(|l| self.lanes[l].map_or(0.0, |lane| step * lane.lambda));
        if P::JOINT {
            // a⁺_i = v_i · max(0, 1 − step·λ/‖v_i‖₂) for v = z − step·∇,
            // row i one group (`max` turns a zero group's NaN into 0).
            // `+ 0.0` makes a shrunk −0.0 +0.0 and keeps any other value.
            for ((an, zi), gi) in a_next.iter_mut().zip(z.iter()).zip(grad.iter()) {
                let v: [f64; K] = core::array::from_fn(|l| zi[l] - step * gi[l]);
                let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                let scale = (1.0 - thresh[0] / norm).max(0.0);
                *an = v.map(|x| x * scale + 0.0);
            }
        } else {
            for ((an, zi), gi) in a_next.iter_mut().zip(z.iter()).zip(grad.iter()) {
                *an = core::array::from_fn(|l| shrink(zi[l] - step * gi[l], thresh[l]));
            }
        }
        if cfg.tree_model {
            enforce_tree(a_next, n, lv);
        }
        let a = a.as_chunks::<K>().0;
        // One pass, three independent ordered sums per lane, each
        // starting at −0.0 and adding in index order exactly as `f64`'s
        // `Sum` would over its own pass:
        // * the restart test `⟨z − a⁺, a⁺ − a⟩`,
        // * `‖a⁺ − a‖²` and `‖a⁺‖²` for the movement tolerance.
        let mut overshoot = [-0.0f64; K];
        let mut change2 = [-0.0f64; K];
        let mut norm2 = [-0.0f64; K];
        for ((zi, an), ao) in z.iter().zip(a_next.iter()).zip(a) {
            let step_taken: [f64; K] = core::array::from_fn(|l| an[l] - ao[l]);
            overshoot = core::array::from_fn(|l| overshoot[l] + (zi[l] - an[l]) * step_taken[l]);
            change2 = core::array::from_fn(|l| change2[l] + step_taken[l] * step_taken[l]);
            norm2 = core::array::from_fn(|l| norm2[l] + an[l] * an[l]);
        }
        if P::JOINT {
            // Lane 0's scalars judge the sums over every lead.
            for sum in [&mut overshoot, &mut change2, &mut norm2] {
                sum[0] = sum.iter().sum();
            }
        }
        let mut beta = [0.0f64; K];
        let mut stopped = 0u32;
        for (l, slot) in self.lanes.iter_mut().enumerate() {
            let Some(lane) = slot else {
                continue;
            };
            lane.iters += 1;
            let change = change2[l].sqrt();
            let norm = norm2[l].sqrt();
            // `a⁺ == a` bit for bit (the sum is only zero when nothing
            // moved, or moved below f64's square range).
            let mine = if P::JOINT { 0..K } else { l..l + 1 };
            let still = change2[l] == 0.0
                && a_next
                    .iter()
                    .zip(a)
                    .all(|(x, y)| mine.clone().all(|k| x[k].to_bits() == y[k].to_bits()));
            let above_target = lane.lambda > lane.target;
            let tol = match &cfg.continuation {
                Some(c) if above_target => c.stage_tol,
                _ => cfg.tol,
            };
            let settled =
                (lane.from_a && still) || (norm > 0.0 && change / norm.max(lane.prev_norm) < tol);
            // Gradient restart: when the momentum direction `a⁺ − a`
            // opposes the step the prox-gradient actually took from z,
            // the extrapolation is overshooting — drop it. A finished
            // continuation stage drops it too: the next stage solves a
            // different problem.
            if (cfg.restart && overshoot[l] > 0.0) || (above_target && settled) {
                lane.t = 1.0;
            }
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * lane.t * lane.t).sqrt());
            beta[l] = (lane.t - 1.0) / t_next;
            // With β = 0 or a⁺ = a the update writes z = a⁺ exactly
            // (neither shrink yields −0.0).
            lane.from_a = beta[l] == 0.0 || still;
            lane.t = t_next;
            let mut finished = lane.iters >= cfg.max_iters;
            if settled {
                match &cfg.continuation {
                    Some(c) if above_target => {
                        lane.lambda = lane.target.max(c.factor * lane.lambda)
                    }
                    _ => finished = true,
                }
            }
            lane.prev_norm = norm;
            if finished {
                stopped |= 1 << l;
            }
        }
        if P::JOINT {
            beta = [beta[0]; K];
        }
        for ((zi, an), ao) in z.iter_mut().zip(a_next.iter()).zip(a) {
            *zi = core::array::from_fn(|l| an[l] + beta[l] * (an[l] - ao[l]));
        }
        core::mem::swap(&mut self.bufs.a, &mut self.bufs.a_next);
        Ok(stopped)
    }
}

/// One reconstruction plus its diagnostics.
#[derive(Debug, Clone)]
pub struct FistaSolve {
    /// Reconstructed window samples (`x̂ = Ψâ`).
    pub x: Vec<f64>,
    /// FISTA iterations actually run (early exit counts fewer than
    /// [`FistaConfig::max_iters`]).
    pub iters: usize,
}

/// Single-lead FISTA solver.
#[derive(Debug, Clone)]
pub struct Fista {
    cfg: FistaConfig,
}

impl Fista {
    /// Creates a solver with the given configuration.
    pub fn new(cfg: FistaConfig) -> Self {
        Fista { cfg }
    }

    /// Configuration in use.
    pub fn config(&self) -> &FistaConfig {
        &self.cfg
    }

    /// Reconstructs a window from its measurements.
    ///
    /// # Errors
    ///
    /// Fails when shapes are inconsistent with the encoder or the
    /// window length is incompatible with the configured levels.
    pub fn reconstruct(&self, encoder: &CsEncoder, y: &[i64]) -> Result<Vec<f64>> {
        let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        self.reconstruct_f64(encoder.sensing_matrix(), &yf)
    }

    /// The Lipschitz constant of `∇f` for `A = ΦΨ` under this
    /// configuration's wavelet and levels: 12 rounds of power iteration
    /// on `AᵀA` from the all-ones vector. It depends only on Φ and the
    /// dictionary, so a caller that solves many windows through one Φ
    /// computes it once and hands it to [`Fista::solve_with`].
    ///
    /// # Errors
    ///
    /// [`CsError::InvalidParameter`] for a degenerate configuration or
    /// a window length incompatible with the configured levels.
    pub fn lipschitz(&self, phi: &SparseTernaryMatrix) -> Result<f64> {
        self.cfg.validate()?;
        self.check_levels(phi.cols())?;
        let (dwt, sig, meas, grad) = &mut <(DwtScratch, Vec<f64>, Vec<f64>, Vec<f64>)>::default();
        let (w, lv) = (self.cfg.wavelet, self.cfg.levels);
        let z = &mut vec![1.0; phi.cols()];
        let mut lam = 1.0f64;
        for _ in 0..12 {
            apply_a(phi, w, lv, z, dwt, sig, meas)?;
            apply_at(phi, w, lv, meas, dwt, sig, grad)?;
            lam = grad.iter().map(|x| x * x).sum::<f64>().sqrt();
            if lam <= 0.0 {
                break;
            }
            for (vi, &ai) in z.iter_mut().zip(grad.iter()) {
                *vi = ai / lam;
            }
        }
        Ok(lam.max(1e-12))
    }

    /// `Ok` when a window of `n` samples divides by `2^levels`.
    fn check_levels(&self, n: usize) -> Result<()> {
        if !n.is_multiple_of(1 << self.cfg.levels) {
            return Err(CsError::InvalidParameter {
                what: "levels",
                detail: format!("window {n} not divisible by 2^{}", self.cfg.levels),
            });
        }
        Ok(())
    }

    /// Float-measurement variant: [`Fista::reconstruct`] runs it on
    /// the encoder's integer measurements.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fista::reconstruct`].
    pub fn reconstruct_f64(&self, phi: &SparseTernaryMatrix, y: &[f64]) -> Result<Vec<f64>> {
        Ok(self.solve(phi, y)?.x)
    }

    /// The solver core with a fresh [`FistaScratch`] and the Lipschitz
    /// constant computed for this one solve.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fista::solve_with`].
    pub fn solve(&self, phi: &SparseTernaryMatrix, y: &[f64]) -> Result<FistaSolve> {
        let lip = self.lipschitz(phi)?;
        self.solve_with(&mut FistaScratch::new(), phi, y, lip)
    }

    /// `Ok` when [`Fista::solve_with`] can solve `y` through `phi`
    /// stepping by `lipschitz`. The checks run in this order:
    ///
    /// # Errors
    ///
    /// [`CsError::InvalidParameter`] when the configuration is
    /// degenerate: `levels` or `max_iters` is zero, `2^levels`
    /// overflows a `usize`, `lambda_rel` or `tol` is negative or
    /// non-finite (`tol == 0` is valid), or the continuation schedule
    /// is degenerate (see [`Continuation`]); or when `lipschitz` is
    /// not finite and positive. [`CsError::ShapeMismatch`] when `y`
    /// does not have `phi.rows()` entries, [`CsError::NonFinite`] when
    /// it holds a non-finite value, and [`CsError::InvalidParameter`]
    /// when the window length is incompatible with the configured
    /// levels.
    pub fn check_input(&self, phi: &SparseTernaryMatrix, y: &[f64], lipschitz: f64) -> Result<()> {
        self.cfg.validate()?;
        if !(lipschitz.is_finite() && lipschitz > 0.0) {
            return Err(CsError::InvalidParameter {
                what: "lipschitz",
                detail: format!("{lipschitz} is not finite and positive"),
            });
        }
        if y.len() != phi.rows() {
            return Err(CsError::ShapeMismatch {
                what: "measurement vector",
                expected: phi.rows(),
                got: y.len(),
            });
        }
        if let Some(index) = y.iter().position(|v| !v.is_finite()) {
            return Err(CsError::NonFinite {
                what: "measurement vector",
                index,
            });
        }
        self.check_levels(phi.cols())
    }

    /// [`Fista::solve`] on caller-owned working memory, stepping by a
    /// `lipschitz` constant the caller computed once for `phi` with
    /// [`Fista::lipschitz`]: with a warm `scratch` the iteration loop
    /// performs no heap allocation, and a solve allocates only its
    /// returned samples. Every solve starts cold, from zeros. This is
    /// the one-lane instance of the lane solve [`Fista::solve_stream`]
    /// runs, so the two agree bit for bit.
    ///
    /// Besides the tolerance and the iteration cap, a solve stops at an
    /// exact fixed point: when a step taken from the current iterate
    /// returns it bit for bit, every later iteration would too (an
    /// all-zero `y` gets there on the first iteration).
    ///
    /// # Errors
    ///
    /// Those of [`Fista::check_input`], before any work.
    pub fn solve_with(
        &self,
        scratch: &mut FistaScratch,
        phi: &SparseTernaryMatrix,
        y: &[f64],
        lipschitz: f64,
    ) -> Result<FistaSolve> {
        let mut out = None;
        let FistaScratch { one, wide, temp } = scratch;
        self.stream_lanes::<1>(
            one,
            wide,
            temp,
            phi,
            lipschitz,
            Some((0, y)),
            &mut || None,
            &mut |_, solve| out = Some(solve),
        );
        out.unwrap_or_else(|| {
            Err(CsError::InvalidParameter {
                what: "solve",
                detail: "the window produced no result".to_string(),
            })
        })
    }

    /// Solves a stream of windows that share `phi` and the `lipschitz`
    /// constant, several at a time: the windows run side by side in
    /// lanes of one pass through Φ, Ψ and the shrinkage, and a lane
    /// takes the next window the iteration its own window stops.
    ///
    /// `next` hands out the windows: an id of the caller's choosing,
    /// the measurements, and how many windows of the stream are still
    /// to come after this one (a hint: a stream too short to fill the
    /// lanes is solved one window at a time). Every window it hands out
    /// comes back exactly once through `done`, with its id, as
    /// [`Fista::solve_with`] would have returned it: the same error, or
    /// the same iteration count and the same samples, bit for bit.
    /// Each lane runs the scalar sequence of operations, with its own
    /// λ stage, momentum, restart and stop test.
    pub fn solve_stream<'y>(
        &self,
        scratch: &mut FistaScratch,
        phi: &SparseTernaryMatrix,
        lipschitz: f64,
        mut next: impl FnMut() -> Option<(usize, &'y [f64], usize)>,
        mut done: impl FnMut(usize, Result<FistaSolve>),
    ) {
        let FistaScratch { one, wide, temp } = scratch;
        while let Some((id, y, left)) = next() {
            if left + 1 < LANES {
                self.stream_lanes::<1>(
                    one,
                    wide,
                    temp,
                    phi,
                    lipschitz,
                    Some((id, y)),
                    &mut || None,
                    &mut done,
                );
            } else {
                self.stream_lanes::<LANES>(
                    wide,
                    one,
                    temp,
                    phi,
                    lipschitz,
                    Some((id, y)),
                    &mut || next().map(|(id, y, _)| (id, y)),
                    &mut done,
                );
            }
        }
    }

    /// Solves the leads of one window jointly, `phis[l]` having sensed
    /// `ys[l]`: `min_a ½Σ_l‖y_l − Φ_lΨa_l‖² + λΣ_i‖a_i‖₂`, where group
    /// `a_i` is coefficient `i` of every lead. The leads are the lanes of
    /// the stream solve, each through its own Φ, and share one set of
    /// scalars: the step `1 / max_l L_l` over the caller's per-lead
    /// `lipschitz` constants, one λ schedule scaled by the largest group
    /// norm of `Aᵀy` where a single lead's uses `‖Aᵀy‖∞`, and one
    /// momentum, restart test and stop test on sums over the leads.
    /// With a warm `scratch` it allocates only its result: one solve
    /// per lead, in order, all with the same iteration count.
    ///
    /// # Errors
    ///
    /// All before any work: [`CsError::InvalidParameter`] for a
    /// degenerate configuration (checked first), or for no leads or
    /// more than four; [`CsError::ShapeMismatch`] when `ys` or
    /// `lipschitz` does not hold one entry per lead or the leads'
    /// matrices differ in shape; then [`Fista::check_input`] on each
    /// lead in turn.
    pub fn solve_joint<Y: AsRef<[f64]>>(
        &self,
        scratch: &mut FistaScratch,
        phis: &[&SparseTernaryMatrix],
        ys: &[Y],
        lipschitz: &[f64],
    ) -> Result<Vec<FistaSolve>> {
        self.cfg.validate()?;
        let leads = phis.len();
        let Some(first) = phis.first().filter(|_| leads <= LANES) else {
            return Err(CsError::InvalidParameter {
                what: "leads",
                detail: format!("{leads} leads; a joint solve takes 1 to {LANES}"),
            });
        };
        let same = |what, expected, got| {
            if expected == got {
                return Ok(());
            }
            Err(CsError::ShapeMismatch {
                what,
                expected,
                got,
            })
        };
        same("measurement vectors per lead", leads, ys.len())?;
        same("lipschitz constants per lead", leads, lipschitz.len())?;
        let (n, m) = (first.cols(), first.rows());
        for ((phi, y), &lip) in phis.iter().zip(ys).zip(lipschitz) {
            same("window length across leads", n, phi.cols())?;
            same("measurements across leads", m, phi.rows())?;
            self.check_input(phi, y.as_ref(), lip)?;
        }
        let FistaScratch { wide, temp, .. } = scratch;
        let mut lanes = Lanes::<LANES>::new(wide, n, m);
        for (l, y) in ys.iter().enumerate() {
            lanes.put_y(l, y.as_ref());
        }
        // `Aᵀy` of every lead at once, for the group norms that scale λ.
        let LaneBufs {
            dwt, sig, grad, y, ..
        } = &mut *lanes.bufs;
        let (sig, grad) = (sig.as_chunks_mut().0, grad.as_chunks_mut().0);
        phis.apply_t(y.as_chunks::<LANES>().0, sig, temp);
        wavedec_lanes(sig, self.cfg.wavelet, self.cfg.levels, dwt, grad)?;
        let max_group2 = grad
            .iter()
            .fold(0.0f64, |mx, row| mx.max(row.iter().map(|v| v * v).sum()));
        lanes.lanes[0] = Some(Lane::start(0, max_group2.sqrt(), &self.cfg));
        let step = 1.0 / lipschitz.iter().fold(0.0f64, |mx, &lip| mx.max(lip));
        while lanes.step(&self.cfg, phis, step, temp)? == 0 {}
        let iters = lanes.lanes[0].take().map_or(0, |lane| lane.iters);
        (0..leads)
            .map(|l| {
                let x = lanes.drain(l, &self.cfg, temp)?;
                Ok(FistaSolve { x, iters })
            })
            .collect()
    }

    /// Runs `first` and then every window `next` hands out through `K`
    /// lanes over `bufs` until all have stopped, passing each result to
    /// `done`. A window that fails its checks comes back at once; a
    /// step that fails (which the checks rule out) fails every busy
    /// lane and ends the run.
    #[expect(
        clippy::too_many_arguments,
        reason = "the lane loop takes its buffers, scratch, Φ, the Lipschitz constant, the first window and both callbacks"
    )]
    fn stream_lanes<'y, const K: usize>(
        &self,
        bufs: &mut LaneBufs,
        one: &mut LaneBufs,
        temp: &mut WindowTemp,
        phi: &SparseTernaryMatrix,
        lipschitz: f64,
        mut first: Option<(usize, &'y [f64])>,
        next: &mut impl FnMut() -> Option<(usize, &'y [f64])>,
        done: &mut impl FnMut(usize, Result<FistaSolve>),
    ) {
        let mut lanes = Lanes::<K>::new(bufs, phi.cols(), phi.rows());
        let step = 1.0 / lipschitz;
        let mut exhausted = false;
        loop {
            while let Some(l) = lanes.lanes.iter().position(Option::is_none) {
                let Some((id, y)) = first.take().or_else(|| {
                    let window = if exhausted { None } else { next() };
                    exhausted = window.is_none();
                    window
                }) else {
                    break;
                };
                if let Err(e) = lanes.load(self, phi, lipschitz, temp, l, id, y) {
                    done(id, Err(e));
                }
            }
            let busy = lanes.busy();
            if busy == 0 {
                return;
            }
            // With nothing left to start, a stream's last few windows
            // finish one at a time: a lane step costs more than a
            // one-window step for each of them.
            if exhausted && K > 1 && busy < DEMOTE_BELOW {
                for l in 0..K {
                    if let Some((id, solve)) =
                        lanes.finish_alone(l, one, &self.cfg, phi, step, temp)
                    {
                        done(id, solve);
                    }
                }
                return;
            }
            match lanes.step(&self.cfg, phi, step, temp) {
                Ok(stopped) => {
                    for l in (0..K).filter(|l| stopped & (1 << l) != 0) {
                        if let Some((id, solve)) = lanes.take(l, &self.cfg, temp) {
                            done(id, solve);
                        }
                    }
                }
                Err(e) => {
                    for lane in lanes.lanes.iter_mut().filter_map(Option::take) {
                        done(lane.id, Err(e.clone()));
                    }
                    return;
                }
            }
        }
    }
}

/// Soft-thresholding (proximal operator of `λ‖·‖₁`).
pub fn soft_threshold(v: f64, thresh: f64) -> f64 {
    if v > thresh {
        v - thresh
    } else if v < -thresh {
        v + thresh
    } else {
        0.0
    }
}

/// [`soft_threshold`] without a branch, as the lane step needs it: both
/// candidates are computed and masks keep the one that applies, `+0.0`
/// when neither does. Bit for bit equal to [`soft_threshold`] for every
/// `v` and every `thresh` that is `≥ 0` or NaN (a threshold is `step·λ`
/// with both non-negative).
#[inline(always)]
fn shrink(v: f64, thresh: f64) -> f64 {
    let above = u64::from(v > thresh).wrapping_neg();
    let below = u64::from(v < -thresh).wrapping_neg();
    f64::from_bits(((v - thresh).to_bits() & above) | ((v + thresh).to_bits() & below))
}

/// Enforces the wavelet parent-child model: a detail coefficient may
/// survive only if its parent at the next-coarser scale survived.
/// Coefficients are packed `[a_L | d_L | d_{L-1} | … | d_1]`.
fn enforce_tree<const K: usize>(a: &mut [[f64; K]], n: usize, levels: usize) {
    // Walk from the coarsest detail band to the finest.
    let coarsest = n >> levels;
    let mut parent_start = coarsest; // d_L
    for lev in (1..levels).rev() {
        let child_start = n - (n >> lev); // start of d_lev
        let child_len = n >> lev;
        let parent_len = child_len / 2;
        for c in 0..child_len {
            let p = parent_start + c / 2;
            debug_assert!(p < parent_start + parent_len);
            let parent = a[p];
            for (child, pl) in a[child_start + c].iter_mut().zip(parent) {
                if pl == 0.0 {
                    *child = 0.0;
                }
            }
        }
        parent_start = child_start;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::CsEncoder;
    use wbsn_sigproc::stats::snr_db;

    /// An ECG-like window: two smooth bumps (QRS + T).
    fn ecg_like(n: usize) -> Vec<i32> {
        (0..n)
            .map(|i| {
                let qrs = 900.0 * (-((i as f64 - n as f64 * 0.4) / 6.0).powi(2) / 2.0).exp();
                let t = 250.0 * (-((i as f64 - n as f64 * 0.62) / 20.0).powi(2) / 2.0).exp();
                (qrs + t) as i32
            })
            .collect()
    }

    /// Thresholds at the edges: zero, subnormal, the smallest normal,
    /// ordinary, huge and infinite.
    const EDGE_THRESHOLDS: [f64; 9] = [
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::MIN_POSITIVE,
        0.25,
        1.0,
        1e300,
        f64::INFINITY,
    ];

    fn assert_shrink_matches(v: f64, t: f64) {
        assert_eq!(
            shrink(v, t).to_bits(),
            soft_threshold(v, t).to_bits(),
            "v = {v:e} ({:#x}), t = {t:e}",
            v.to_bits()
        );
    }

    #[test]
    fn branch_free_shrink_matches_soft_threshold_at_the_edges() {
        for t in EDGE_THRESHOLDS {
            let mut vs = vec![
                0.0,
                -0.0,
                f64::from_bits(1),
                -f64::from_bits(1),
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE,
                2.0,
                -2.0,
                f64::MAX,
                f64::MIN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ];
            for edge in [t, t.next_up(), t.next_down()] {
                vs.extend([edge, -edge]);
            }
            for v in vs {
                assert_shrink_matches(v, t);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        // Any bit pattern for `v` (NaNs, infinities and subnormals
        // included), against every non-negative threshold pattern and
        // the edge thresholds, at `v = ±t` too.
        #[test]
        fn branch_free_shrink_matches_soft_threshold_bitwise(
            v_bits in 0u64..u64::MAX,
            t_bits in 0u64..(1u64 << 63),
            ordinary in -1e6f64..1e6,
            t_ordinary in 0.0f64..1e5,
        ) {
            let (v, t) = (f64::from_bits(v_bits), f64::from_bits(t_bits));
            for (v, t) in [(v, t), (ordinary, t_ordinary), (t, t), (-t, t), (ordinary, t)] {
                proptest::prop_assert_eq!(shrink(v, t).to_bits(), soft_threshold(v, t).to_bits());
            }
            for t in EDGE_THRESHOLDS {
                for v in [v, ordinary, t, -t] {
                    proptest::prop_assert_eq!(shrink(v, t).to_bits(), soft_threshold(v, t).to_bits());
                }
            }
        }
    }

    #[test]
    fn soft_threshold_laws() {
        assert_eq!(soft_threshold(5.0, 2.0), 3.0);
        assert_eq!(soft_threshold(-5.0, 2.0), -3.0);
        assert_eq!(soft_threshold(1.0, 2.0), 0.0);
        assert_eq!(soft_threshold(0.0, 0.0), 0.0);
    }

    #[test]
    fn reconstructs_sparse_signal_at_moderate_cr() {
        let n = 256;
        let x = ecg_like(n);
        let enc = CsEncoder::new(n, 128, 4, 11).unwrap();
        let y = enc.encode(&x).unwrap();
        let solver = Fista::new(FistaConfig::default());
        let xr = solver.reconstruct(&enc, &y).unwrap();
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let snr = snr_db(&xf, &xr);
        assert!(snr > 18.0, "CR=50% snr {snr}");
    }

    #[test]
    fn quality_degrades_with_cr() {
        let n = 256;
        let x = ecg_like(n);
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let solver = Fista::new(FistaConfig::default());
        let snr_at = |m: usize| {
            let enc = CsEncoder::new(n, m, 4, 13).unwrap();
            let y = enc.encode(&x).unwrap();
            snr_db(&xf, &solver.reconstruct(&enc, &y).unwrap())
        };
        let hi = snr_at(160);
        let lo = snr_at(40);
        assert!(hi > lo + 5.0, "m=160 {hi} dB vs m=40 {lo} dB");
    }

    #[test]
    fn tree_model_runs_and_reconstructs() {
        let n = 256;
        let x = ecg_like(n);
        let enc = CsEncoder::new(n, 110, 4, 17).unwrap();
        let y = enc.encode(&x).unwrap();
        // The tree model pairs with a stronger threshold (it prunes
        // orphan coefficients; a small λ leaves too many parents alive
        // for the constraint to help).
        let solver = Fista::new(FistaConfig {
            tree_model: true,
            lambda_rel: 0.02,
            ..FistaConfig::default()
        });
        let xr = solver.reconstruct(&enc, &y).unwrap();
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        assert!(snr_db(&xf, &xr) > 10.0);
    }

    #[test]
    fn rejects_incompatible_levels() {
        let enc = CsEncoder::new(80, 40, 4, 1).unwrap(); // 80 not divisible by 32
        let y = enc.encode(&vec![0; 80]).unwrap();
        let solver = Fista::new(FistaConfig::default());
        assert!(solver.reconstruct(&enc, &y).is_err());
    }

    #[test]
    fn rejects_wrong_measurement_length() {
        let enc = CsEncoder::new(128, 64, 4, 1).unwrap();
        let solver = Fista::new(FistaConfig::default());
        assert!(solver.reconstruct(&enc, &[0i64; 63]).is_err());
    }

    #[test]
    fn zero_measurements_give_zero_signal() {
        // λ = 0 and the iterate never leaves zero: an exact fixed point
        // on the first step, not `max_iters` of idling.
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let y = vec![0.0; 64];
        for cfg in [
            FistaConfig::default(),
            FistaConfig {
                max_iters: 800,
                tol: 0.0,
                restart: true,
                continuation: Some(schedule()),
                ..FistaConfig::default()
            },
        ] {
            let solve = Fista::new(cfg).solve(enc.sensing_matrix(), &y).unwrap();
            assert!(solve.iters <= 2, "{} iterations on y = 0", solve.iters);
            assert!(solve.x.iter().all(|&v| v.to_bits() == 0), "{cfg:?}");
        }
        let solver = Fista::new(FistaConfig::default());
        let xr = solver.reconstruct(&enc, &vec![0i64; 64]).unwrap();
        assert!(xr.iter().all(|&v| v.abs() < 1e-9));
    }

    /// A continuation schedule in the gateway's range.
    fn schedule() -> Continuation {
        Continuation {
            start_rel: 0.01,
            factor: 0.3,
            stage_tol: 3e-3,
        }
    }

    #[test]
    fn continuation_reaches_the_plain_optimum_in_fewer_iterations() {
        let n = 256;
        let x = ecg_like(n);
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let enc = CsEncoder::new(n, 128, 4, 11).unwrap();
        let y: Vec<f64> = enc.encode(&x).unwrap().iter().map(|&v| v as f64).collect();
        let plain = FistaConfig {
            lambda_rel: 0.001,
            max_iters: 800,
            tol: 3e-5,
            restart: true,
            ..FistaConfig::default()
        };
        let cold = Fista::new(plain).solve(enc.sensing_matrix(), &y).unwrap();
        let staged = Fista::new(FistaConfig {
            continuation: Some(schedule()),
            tol: 1e-4,
            ..plain
        })
        .solve(enc.sensing_matrix(), &y)
        .unwrap();
        assert!(
            staged.iters < cold.iters,
            "continuation {} iterations vs plain {}",
            staged.iters,
            cold.iters
        );
        let (snr_cold, snr_staged) = (snr_db(&xf, &cold.x), snr_db(&xf, &staged.x));
        assert!(
            snr_staged + 0.5 >= snr_cold,
            "continuation {snr_staged:.2} dB vs plain {snr_cold:.2} dB"
        );
    }

    #[test]
    fn continuation_stages_share_the_iteration_cap() {
        let enc = CsEncoder::new(256, 128, 4, 11).unwrap();
        let y: Vec<f64> = enc
            .encode(&ecg_like(256))
            .unwrap()
            .iter()
            .map(|&v| v as f64)
            .collect();
        // A schedule whose stages never end by tolerance still stops
        // at `max_iters`.
        let cfg = FistaConfig {
            max_iters: 9,
            continuation: Some(Continuation {
                stage_tol: 0.0,
                ..schedule()
            }),
            ..FistaConfig::default()
        };
        let solve = Fista::new(cfg).solve(enc.sensing_matrix(), &y).unwrap();
        assert_eq!(solve.iters, 9);
        // A schedule starting at the target λ is plain FISTA, bit for
        // bit.
        let plain = FistaConfig::default();
        let at_target = FistaConfig {
            continuation: Some(Continuation {
                start_rel: plain.lambda_rel,
                ..schedule()
            }),
            ..plain
        };
        let a = Fista::new(plain).solve(enc.sensing_matrix(), &y).unwrap();
        let b = Fista::new(at_target)
            .solve(enc.sensing_matrix(), &y)
            .unwrap();
        assert_eq!(a.iters, b.iters);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.x), bits(&b.x));
    }

    #[test]
    fn non_finite_measurements_are_a_typed_error() {
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let solver = Fista::new(FistaConfig::default());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut y = vec![0.0; 64];
            y[11] = bad;
            let want = CsError::NonFinite {
                what: "measurement vector",
                index: 11,
            };
            assert_eq!(solver.solve(enc.sensing_matrix(), &y).unwrap_err(), want);
            // In any lead of a joint solve.
            for lead in 0..3 {
                let mut ys = vec![vec![0.0; 64]; 3];
                ys[lead] = y.clone();
                let err = solver
                    .solve_joint(
                        &mut FistaScratch::new(),
                        &[enc.sensing_matrix(); 3],
                        &ys,
                        &[1.0; 3],
                    )
                    .unwrap_err();
                assert_eq!(err, want, "lead {lead}");
            }
        }
    }

    /// One configuration per way a [`FistaConfig`] can be degenerate,
    /// each with the parameter its error names.
    fn degenerate_configs() -> [(&'static str, FistaConfig); 10] {
        let base = FistaConfig::default();
        [
            ("levels", FistaConfig { levels: 0, ..base }),
            ("levels", FistaConfig { levels: 64, ..base }),
            (
                "levels",
                FistaConfig {
                    levels: usize::MAX,
                    ..base
                },
            ),
            (
                "max_iters",
                FistaConfig {
                    max_iters: 0,
                    ..base
                },
            ),
            (
                "lambda_rel",
                FistaConfig {
                    lambda_rel: -1e-3,
                    ..base
                },
            ),
            (
                "lambda_rel",
                FistaConfig {
                    lambda_rel: f64::NAN,
                    ..base
                },
            ),
            (
                "lambda_rel",
                FistaConfig {
                    lambda_rel: f64::INFINITY,
                    ..base
                },
            ),
            ("tol", FistaConfig { tol: -1e-5, ..base }),
            (
                "tol",
                FistaConfig {
                    tol: f64::NAN,
                    ..base
                },
            ),
            (
                "tol",
                FistaConfig {
                    tol: f64::INFINITY,
                    ..base
                },
            ),
        ]
    }

    #[test]
    fn degenerate_configs_are_typed_errors_before_any_work() {
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let y: Vec<f64> = enc
            .encode(&ecg_like(128))
            .unwrap()
            .iter()
            .map(|&v| v as f64)
            .collect();
        for (what, cfg) in degenerate_configs() {
            assert!(
                matches!(cfg.validate(), Err(CsError::InvalidParameter { what: w, .. }) if w == what),
                "{cfg:?}"
            );
            // Measurements of the wrong length too: the configuration
            // is checked before the input.
            for y in [&y[..], &y[1..]] {
                let err = Fista::new(cfg).solve(enc.sensing_matrix(), y).unwrap_err();
                assert!(
                    matches!(err, CsError::InvalidParameter { what: w, .. } if w == what),
                    "{cfg:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn joint_degenerate_configs_are_typed_errors_before_any_work() {
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let y: Vec<f64> = enc
            .encode(&ecg_like(128))
            .unwrap()
            .iter()
            .map(|&v| v as f64)
            .collect();
        for (what, cfg) in degenerate_configs() {
            // Mis-sized measurements, and a joint solve of no leads, too:
            // the configuration is checked before the input.
            for ys in [vec![&y[..]], vec![&y[1..]], Vec::new()] {
                let err = Fista::new(cfg)
                    .solve_joint(
                        &mut FistaScratch::new(),
                        &[enc.sensing_matrix()],
                        &ys,
                        &[1.0],
                    )
                    .unwrap_err();
                assert!(
                    matches!(err, CsError::InvalidParameter { what: w, .. } if w == what),
                    "joint {cfg:?}: {err:?}"
                );
            }
        }
        // The base configuration itself solves.
        let fista = Fista::new(FistaConfig::default());
        let lip = fista.lipschitz(enc.sensing_matrix()).unwrap();
        assert!(fista
            .solve_joint(
                &mut FistaScratch::new(),
                &[enc.sensing_matrix()],
                &[&y[..]],
                &[lip]
            )
            .is_ok());
    }

    #[test]
    fn degenerate_continuation_schedules_are_typed_errors_before_any_work() {
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let y = vec![1.0; 64];
        let base = FistaConfig::default();
        let with = |c: Continuation| FistaConfig {
            continuation: Some(c),
            ..base
        };
        let s = schedule();
        let cases = [
            (
                "continuation.factor",
                with(Continuation { factor: 0.0, ..s }),
            ),
            (
                "continuation.factor",
                with(Continuation { factor: 1.0, ..s }),
            ),
            (
                "continuation.factor",
                with(Continuation { factor: -0.5, ..s }),
            ),
            (
                "continuation.factor",
                with(Continuation {
                    factor: f64::NAN,
                    ..s
                }),
            ),
            (
                "continuation.start_rel",
                with(Continuation {
                    start_rel: base.lambda_rel / 2.0,
                    ..s
                }),
            ),
            (
                "continuation.start_rel",
                with(Continuation {
                    start_rel: f64::INFINITY,
                    ..s
                }),
            ),
            (
                "continuation.start_rel",
                with(Continuation {
                    start_rel: f64::NAN,
                    ..s
                }),
            ),
            (
                "continuation.stage_tol",
                with(Continuation {
                    stage_tol: -1e-3,
                    ..s
                }),
            ),
            (
                "continuation.stage_tol",
                with(Continuation {
                    stage_tol: f64::NAN,
                    ..s
                }),
            ),
            (
                "continuation.stage_tol",
                with(Continuation {
                    stage_tol: f64::INFINITY,
                    ..s
                }),
            ),
        ];
        for (what, cfg) in cases {
            assert!(
                matches!(cfg.validate(), Err(CsError::InvalidParameter { what: w, .. }) if w == what),
                "{cfg:?}"
            );
            for y in [&y[..], &y[1..]] {
                let err = Fista::new(cfg).solve(enc.sensing_matrix(), y).unwrap_err();
                assert!(
                    matches!(err, CsError::InvalidParameter { what: w, .. } if w == what),
                    "{cfg:?}: {err:?}"
                );
            }
        }
        // The edges that do describe a schedule.
        for c in [
            Continuation {
                start_rel: base.lambda_rel,
                ..s
            },
            Continuation {
                stage_tol: 0.0,
                ..s
            },
            Continuation { factor: 1e-9, ..s },
        ] {
            assert_eq!(with(c).validate(), Ok(()), "{c:?}");
        }
    }

    #[test]
    fn non_positive_lipschitz_constants_are_typed_errors() {
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let y = vec![1.0; 64];
        let solver = Fista::new(FistaConfig::default());
        for lip in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = solver
                .solve_with(&mut FistaScratch::new(), enc.sensing_matrix(), &y, lip)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    CsError::InvalidParameter {
                        what: "lipschitz",
                        ..
                    }
                ),
                "{lip}: {err:?}"
            );
        }
    }

    #[test]
    fn zero_tolerance_runs_every_iteration() {
        let enc = CsEncoder::new(128, 64, 4, 3).unwrap();
        let y = enc.encode(&ecg_like(128)).unwrap();
        let cfg = FistaConfig {
            tol: 0.0,
            max_iters: 7,
            ..FistaConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        let solve = Fista::new(cfg).solve(enc.sensing_matrix(), &yf).unwrap();
        assert_eq!(solve.iters, 7);
    }

    #[test]
    fn scratch_reuse_across_shapes_matches_fresh_solves() {
        // One scratch serving windows of different shapes in turn (as a
        // gateway worker does across sessions) gives the same bits as a
        // fresh scratch per solve.
        for continuation in [None, Some(schedule())] {
            let solver = Fista::new(FistaConfig {
                max_iters: 60,
                continuation,
                ..FistaConfig::default()
            });
            let mut scratch = FistaScratch::new();
            for (n, m) in [(256, 128), (128, 48), (512, 192), (256, 100)] {
                let enc = CsEncoder::new(n, m, 4, 9).unwrap();
                let y: Vec<f64> = enc
                    .encode(&ecg_like(n))
                    .unwrap()
                    .iter()
                    .map(|&v| v as f64)
                    .collect();
                let lip = solver.lipschitz(enc.sensing_matrix()).unwrap();
                let reused = solver
                    .solve_with(&mut scratch, enc.sensing_matrix(), &y, lip)
                    .unwrap();
                let fresh = solver.solve(enc.sensing_matrix(), &y).unwrap();
                assert_eq!(reused.iters, fresh.iters);
                let a: Vec<u64> = reused.x.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u64> = fresh.x.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "n={n} m={m}");
            }
        }
    }

    /// Three correlated leads sharing wave timing, different gains.
    fn leads(n: usize) -> Vec<Vec<f64>> {
        let shape = |i: usize| -> f64 {
            let qrs = 900.0 * (-((i as f64 - n as f64 * 0.4) / 6.0).powi(2) / 2.0).exp();
            let t = 250.0 * (-((i as f64 - n as f64 * 0.62) / 20.0).powi(2) / 2.0).exp();
            qrs + t
        };
        vec![
            (0..n).map(shape).collect(),
            (0..n).map(|i| 0.6 * shape(i)).collect(),
            (0..n).map(|i| -0.8 * shape(i)).collect(),
        ]
    }

    /// `count` sensing matrices of `m × n`, seeded `seed + l` as the
    /// Figure 5 sweep (`wbsn_bench::sweep`) seeds its leads.
    fn lead_phis(count: usize, m: usize, n: usize, seed: u64) -> Vec<SparseTernaryMatrix> {
        (0..count)
            .map(|l| SparseTernaryMatrix::random(m, n, 4, seed + l as u64).unwrap())
            .collect()
    }

    /// A joint solve on a fresh scratch with each lead's own constant.
    fn solve_joint(
        solver: &Fista,
        phis: &[SparseTernaryMatrix],
        ys: &[Vec<f64>],
    ) -> Result<Vec<FistaSolve>> {
        let refs: Vec<&SparseTernaryMatrix> = phis.iter().collect();
        let lips = phis
            .iter()
            .map(|phi| solver.lipschitz(phi))
            .collect::<Result<Vec<f64>>>()?;
        solver.solve_joint(&mut FistaScratch::new(), &refs, ys, &lips)
    }

    #[test]
    fn joint_beats_independent_at_high_cr() {
        let n = 256;
        let m = 56; // CR ≈ 78%
        let xs = leads(n);
        let phis = lead_phis(3, m, n, 100);
        let ys: Vec<Vec<f64>> = (0..3).map(|l| phis[l].apply(&xs[l])).collect();
        let solver = Fista::new(FistaConfig::default());
        let mut snr_indep = 0.0;
        for l in 0..3 {
            let xr = solver.reconstruct_f64(&phis[l], &ys[l]).unwrap();
            snr_indep += snr_db(&xs[l], &xr);
        }
        snr_indep /= 3.0;
        let xr = solve_joint(&solver, &phis, &ys).unwrap();
        let snr_joint: f64 = (0..3).map(|l| snr_db(&xs[l], &xr[l].x)).sum::<f64>() / 3.0;
        assert!(
            snr_joint > snr_indep,
            "joint {snr_joint:.1} dB must beat independent {snr_indep:.1} dB"
        );
    }

    #[test]
    fn joint_reconstruction_is_accurate_at_moderate_cr() {
        let n = 256;
        let xs = leads(n);
        let phis = lead_phis(3, 128, n, 200);
        let ys: Vec<Vec<f64>> = (0..3).map(|l| phis[l].apply(&xs[l])).collect();
        let xr = solve_joint(&Fista::new(FistaConfig::default()), &phis, &ys).unwrap();
        for l in 0..3 {
            let snr = snr_db(&xs[l], &xr[l].x);
            assert!(snr > 18.0, "lead {l}: {snr} dB");
            assert_eq!(xr[l].iters, xr[0].iters);
        }
    }

    #[test]
    fn joint_shape_validation() {
        let phi = SparseTernaryMatrix::random(32, 128, 4, 1).unwrap();
        let other = SparseTernaryMatrix::random(33, 128, 4, 2).unwrap();
        let solver = Fista::new(FistaConfig::default());
        let joint = |phis: &[&SparseTernaryMatrix], ys: &[Vec<f64>], lips: &[f64]| {
            solver.solve_joint(&mut FistaScratch::new(), phis, ys, lips)
        };
        let shape = |what: &'static str, expected: usize, got: usize| {
            Err(CsError::ShapeMismatch {
                what,
                expected,
                got,
            })
        };
        // Wrong measurement length.
        assert_eq!(
            joint(&[&phi], &[vec![0.0; 31]], &[1.0]).map(|_| ()),
            shape("measurement vector", 32, 31)
        );
        // Lead count mismatches.
        assert_eq!(
            joint(&[&phi], &[vec![0.0; 32], vec![0.0; 32]], &[1.0]).map(|_| ()),
            shape("measurement vectors per lead", 1, 2)
        );
        assert_eq!(
            joint(&[&phi, &phi], &[vec![0.0; 32], vec![0.0; 32]], &[1.0]).map(|_| ()),
            shape("lipschitz constants per lead", 2, 1)
        );
        // Leads of different shapes.
        assert_eq!(
            joint(&[&phi, &other], &[vec![0.0; 32], vec![0.0; 33]], &[1.0; 2]).map(|_| ()),
            shape("measurements across leads", 32, 33)
        );
        // Empty.
        assert!(matches!(
            joint(&[], &[], &[]),
            Err(CsError::InvalidParameter { what: "leads", .. })
        ));
        // A bad constant is the lead's typed error.
        assert!(matches!(
            joint(&[&phi, &phi], &[vec![0.0; 32], vec![0.0; 32]], &[1.0, 0.0]),
            Err(CsError::InvalidParameter {
                what: "lipschitz",
                ..
            })
        ));
    }

    #[test]
    fn more_leads_than_lanes_are_a_typed_error() {
        let phi = SparseTernaryMatrix::random(32, 128, 4, 1).unwrap();
        let solver = Fista::new(FistaConfig::default());
        for leads in [LANES + 1, 2 * LANES] {
            let phis = vec![&phi; leads];
            let ys = vec![vec![1.0; 32]; leads];
            let err = solver
                .solve_joint(&mut FistaScratch::new(), &phis, &ys, &vec![1.0; leads])
                .unwrap_err();
            assert!(
                matches!(err, CsError::InvalidParameter { what: "leads", .. }),
                "{leads} leads: {err:?}"
            );
        }
        // Four leads solve.
        let ys = vec![vec![1.0; 32]; LANES];
        assert!(solver
            .solve_joint(&mut FistaScratch::new(), &[&phi; LANES], &ys, &[1.0; LANES])
            .is_ok());
    }

    #[test]
    fn warm_joint_scratch_matches_fresh_solves() {
        // One scratch through stream, single and joint solves of
        // different shapes and lead counts gives the same bits as a
        // fresh scratch per joint solve.
        for continuation in [None, Some(schedule())] {
            let solver = Fista::new(FistaConfig {
                max_iters: 60,
                restart: true,
                continuation,
                ..FistaConfig::default()
            });
            let mut scratch = FistaScratch::new();
            for (n, m, count) in [(256, 100, 3), (128, 48, 2), (512, 192, 3), (256, 64, 1)] {
                let phis = lead_phis(count, m, n, 40);
                let ys: Vec<Vec<f64>> = leads(n)
                    .iter()
                    .zip(&phis)
                    .map(|(x, phi)| phi.apply(x))
                    .collect();
                let refs: Vec<&SparseTernaryMatrix> = phis.iter().collect();
                let lips: Vec<f64> = phis.iter().map(|p| solver.lipschitz(p).unwrap()).collect();
                solver
                    .solve_with(&mut scratch, &phis[0], &ys[0], lips[0])
                    .unwrap();
                let warm = solver.solve_joint(&mut scratch, &refs, &ys, &lips).unwrap();
                let fresh = solve_joint(&solver, &phis, &ys).unwrap();
                assert_eq!(warm.len(), count);
                for (w, f) in warm.iter().zip(&fresh) {
                    assert_eq!(w.iters, f.iters);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&w.x), bits(&f.x), "n={n} m={m} leads={count}");
                }
            }
        }
    }

    #[test]
    fn zero_measurements_give_zero_leads_at_once() {
        let phis = lead_phis(3, 64, 128, 3);
        let ys = vec![vec![0.0; 64]; 3];
        let xr = solve_joint(&Fista::new(FistaConfig::default()), &phis, &ys).unwrap();
        for solve in xr {
            assert_eq!(solve.iters, 1);
            assert!(solve.x.iter().all(|&v| v.to_bits() == 0));
        }
    }
}
