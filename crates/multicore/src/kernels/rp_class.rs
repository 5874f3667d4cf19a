//! RP-CLASS: random-projection + piecewise-linear fuzzy classification
//! kernel.
//!
//! The beat window is projected through a ternary matrix (rows
//! partitioned across cores), then each core evaluates its rows'
//! contribution to every class cost using the four-segment PWL
//! membership — absolute values and segment selection are
//! **data-dependent branches**, so cores de-synchronize exactly as the
//! paper describes; the `Bar` instruction then recovers lock-step
//! before core 0 reduces the partial costs and picks the class.

use super::layout;
use crate::isa::Reg;
use crate::program::{Program, ProgramBuilder};
use crate::{MulticoreError, Result};
use wbsn_sigproc::matrix::XorShift64;

/// Absolute word address where the predicted class index is stored.
pub const RESULT_ADDR: usize = 3 * layout::BANK_SIZE + 100;

/// Offsets within a core's bank (bank size 4096 words). The weight
/// region must hold `local_rows · L ≤ 3072` words — validated at
/// program-build time so a single-core mapping of the default 24×128
/// matrix still fits.
const W_OFF: usize = 256; // ternary weight rows (≤ 3072 words)
const MEAN_OFF: usize = 3400; // class means (class*128 + local_row)
const Y_OFF: usize = 3920; // projected features
const COST_OFF: usize = 4060; // partial class costs

/// Kernel parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpParams {
    /// Beat-window length (power of two ≤ 256).
    pub l: usize,
    /// Projection rows (features).
    pub k: usize,
    /// Number of classes (≤ 4).
    pub n_classes: usize,
    /// Seed for the ternary weights.
    pub seed: u64,
    /// PWL segment thresholds on |d|.
    pub thresholds: [i32; 3],
    /// PWL slopes per segment.
    pub slopes: [i32; 4],
    /// PWL intercepts per segment.
    pub intercepts: [i32; 4],
}

impl Default for RpParams {
    fn default() -> Self {
        RpParams {
            l: 128,
            k: 24,
            n_classes: 3,
            seed: 0x5EED,
            thresholds: [200, 600, 1400],
            slopes: [1, 2, 3, 4],
            intercepts: [0, -200, -800, -2200],
        }
    }
}

impl RpParams {
    fn validate(&self, n_cores: usize) -> Result<()> {
        if !self.l.is_power_of_two() || self.l > 256 {
            return Err(MulticoreError::InvalidParameter {
                what: "l",
                detail: "window length must be a power of two ≤ 256".into(),
            });
        }
        if self.k == 0 || !self.k.is_multiple_of(n_cores) || self.k / n_cores > 128 {
            return Err(MulticoreError::InvalidParameter {
                what: "k",
                detail: format!("rows ({}) must divide evenly over {n_cores} cores", self.k),
            });
        }
        if (self.k / n_cores) * self.l > MEAN_OFF - W_OFF {
            return Err(MulticoreError::InvalidParameter {
                what: "k*l",
                detail: format!(
                    "weight region ({} words) exceeds the bank layout budget ({})",
                    (self.k / n_cores) * self.l,
                    MEAN_OFF - W_OFF
                ),
            });
        }
        if self.n_classes == 0 || self.n_classes > 4 {
            return Err(MulticoreError::InvalidParameter {
                what: "n_classes",
                detail: "must be 1..=4".into(),
            });
        }
        Ok(())
    }

    /// Deterministic ternary weight for `(row, col)`.
    pub fn weights(&self) -> Vec<i32> {
        let mut rng = XorShift64::new(self.seed);
        (0..self.k * self.l)
            .map(|_| {
                let u = rng.next_f64();
                if u < 1.0 / 6.0 {
                    1
                } else if u < 1.0 / 3.0 {
                    -1
                } else {
                    0
                }
            })
            .collect()
    }
}

/// PWL cost contribution of a single feature deviation `d` (host and
/// kernel agree bit-for-bit).
pub fn pwl_cost(p: &RpParams, d: i32) -> i32 {
    let a = d.abs();
    let seg = if a < p.thresholds[0] {
        0
    } else if a < p.thresholds[1] {
        1
    } else if a < p.thresholds[2] {
        2
    } else {
        3
    };
    p.slopes[seg]
        .wrapping_mul(a)
        .wrapping_add(p.intercepts[seg])
}

/// Host-reference classification. `x` is the beat window; `means`
/// is `n_classes × k` (row-major). Returns (projected features,
/// per-class costs, predicted class).
pub fn host_reference(p: &RpParams, x: &[i32], means: &[i32]) -> (Vec<i64>, Vec<i64>, usize) {
    assert_eq!(x.len(), p.l, "window length");
    assert_eq!(means.len(), p.n_classes * p.k, "means shape");
    let w = p.weights();
    let y: Vec<i64> = (0..p.k)
        .map(|k| (0..p.l).map(|j| w[k * p.l + j] as i64 * x[j] as i64).sum())
        .collect();
    let costs: Vec<i64> = (0..p.n_classes)
        .map(|c| {
            (0..p.k)
                .map(|k| {
                    let d = (y[k] as i32).wrapping_sub(means[c * p.k + k]);
                    pwl_cost(p, d) as i64
                })
                .sum()
        })
        .collect();
    let predicted = costs
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .map(|(i, _)| i)
        .expect("at least one class");
    (y, costs, predicted)
}

/// Emits the SPMD program.
///
/// # Errors
///
/// Fails when the parameters do not partition over `n_cores`.
pub fn build_program(p: &RpParams, n_cores: usize) -> Result<Program> {
    p.validate(n_cores)?;
    let local_rows = p.k / n_cores;
    let l_shift = p.l.trailing_zeros() as u8;

    let zero = Reg::r(15);
    let cid = Reg::r(14);
    let base = Reg::r(13);
    let lr = Reg::r(12); // local row index
    let lr_end = Reg::r(11);
    let wptr = Reg::r(10);
    let acc = Reg::r(9);
    let j = Reg::r(8);
    let j_end = Reg::r(7);
    let t1 = Reg::r(6);
    let t2 = Reg::r(5);
    let t3 = Reg::r(4);
    let d = Reg::r(3);
    let tmp = Reg::r(2);
    let cost = Reg::r(1);
    let cls = Reg::r(0);

    let mut b = ProgramBuilder::new();
    b.movi(zero, 0);
    b.core_id(cid);
    b.slli(base, cid, 12);

    // ---- projection: y[lr] = Σ_j w[lr*L + j] * x[j] ----
    b.movi(lr, 0);
    b.movi(lr_end, local_rows as i32);
    b.label("proj");
    b.bge_label(lr, lr_end, "proj_done");
    // wptr = base + W_OFF + lr*L
    b.slli(wptr, lr, l_shift);
    b.add(wptr, wptr, base);
    b.movi(acc, 0);
    b.movi(j, 0);
    b.movi(j_end, p.l as i32);
    b.label("dot");
    b.bge_label(j, j_end, "dot_done");
    b.add(tmp, wptr, j);
    b.ld(t1, tmp, W_OFF as i32); // weight
    b.add(tmp, base, j);
    b.ld(t2, tmp, layout::INPUT as i32); // x[j]
    b.mul(t1, t1, t2);
    b.add(acc, acc, t1);
    b.addi(j, j, 1);
    b.jump_label("dot");
    b.label("dot_done");
    b.add(tmp, base, lr);
    b.st(acc, tmp, Y_OFF as i32);
    b.addi(lr, lr, 1);
    b.jump_label("proj");
    b.label("proj_done");

    // ---- per-class partial costs with PWL membership ----
    b.movi(cls, 0);
    b.label("class_loop");
    b.movi(tmp, p.n_classes as i32);
    b.bge_label(cls, tmp, "class_done");
    b.movi(cost, 0);
    b.movi(lr, 0);
    b.label("row_loop");
    b.bge_label(lr, lr_end, "row_done");
    // d = y[lr] - mean[cls*128 + lr]
    b.add(tmp, base, lr);
    b.ld(d, tmp, Y_OFF as i32);
    b.slli(t1, cls, 7); // cls*128
    b.add(t1, t1, base);
    b.add(t1, t1, lr);
    b.ld(t2, t1, MEAN_OFF as i32);
    b.sub(d, d, t2);
    // |d| — data-dependent branch (divergence source).
    b.bge_label(d, zero, "abs_done");
    b.sub(d, zero, d);
    b.label("abs_done");
    // Segment select: cascade of compares (more divergence).
    b.movi(t1, p.thresholds[0]);
    b.blt_label(d, t1, "seg0");
    b.movi(t1, p.thresholds[1]);
    b.blt_label(d, t1, "seg1");
    b.movi(t1, p.thresholds[2]);
    b.blt_label(d, t1, "seg2");
    // seg3
    b.movi(t1, p.slopes[3]);
    b.mul(t1, t1, d);
    b.addi(t1, t1, p.intercepts[3]);
    b.jump_label("seg_done");
    b.label("seg2");
    b.movi(t1, p.slopes[2]);
    b.mul(t1, t1, d);
    b.addi(t1, t1, p.intercepts[2]);
    b.jump_label("seg_done");
    b.label("seg1");
    b.movi(t1, p.slopes[1]);
    b.mul(t1, t1, d);
    b.addi(t1, t1, p.intercepts[1]);
    b.jump_label("seg_done");
    b.label("seg0");
    b.movi(t1, p.slopes[0]);
    b.mul(t1, t1, d);
    b.addi(t1, t1, p.intercepts[0]);
    b.label("seg_done");
    b.add(cost, cost, t1);
    b.addi(lr, lr, 1);
    b.jump_label("row_loop");
    b.label("row_done");
    // Store partial cost; re-synchronize before the next class so the
    // divergent membership evaluation cannot snowball.
    b.add(tmp, base, cls);
    b.st(cost, tmp, COST_OFF as i32);
    b.bar(1);
    b.addi(cls, cls, 1);
    b.jump_label("class_loop");
    b.label("class_done");

    b.bar(2);
    // ---- reduction on core 0 ----
    b.bne_label(cid, zero, "finish");
    // best_cost (t2) = i32::MAX, best_class (t3) = 0
    b.movi(t2, i32::MAX);
    b.movi(t3, 0);
    b.movi(cls, 0);
    b.label("red_class");
    b.movi(tmp, p.n_classes as i32);
    b.bge_label(cls, tmp, "red_done");
    b.movi(cost, 0);
    b.movi(j, 0); // core counter
    b.movi(j_end, n_cores as i32);
    b.label("red_core");
    b.bge_label(j, j_end, "red_core_done");
    b.slli(tmp, j, 12); // core bank base
    b.add(tmp, tmp, cls);
    b.ld(t1, tmp, COST_OFF as i32);
    b.add(cost, cost, t1);
    b.addi(j, j, 1);
    b.jump_label("red_core");
    b.label("red_core_done");
    // if cost < best: best = cost, best_class = cls
    b.bge_label(cost, t2, "no_update");
    b.add(t2, cost, zero);
    b.add(t3, cls, zero);
    b.label("no_update");
    b.addi(cls, cls, 1);
    b.jump_label("red_class");
    b.label("red_done");
    b.movi(tmp, RESULT_ADDR as i32);
    b.st(t3, tmp, 0);
    b.label("finish");
    b.halt();
    b.build()
}

/// Loads the beat window (replicated per core bank), the partitioned
/// weights and the class means into simulator memory.
///
/// Row `k` is owned by core `k % n_cores` as local row `k / n_cores`.
///
/// # Panics
///
/// Panics on shape violations.
pub fn init_dmem(dmem: &mut [i32], p: &RpParams, n_cores: usize, x: &[i32], means: &[i32]) {
    assert_eq!(x.len(), p.l);
    assert_eq!(means.len(), p.n_classes * p.k);
    let w = p.weights();
    let local_rows = p.k / n_cores;
    for c in 0..n_cores {
        let base = layout::bank_base(c);
        dmem[base..base + p.l].copy_from_slice(x);
        for lrow in 0..local_rows {
            let k = c + lrow * n_cores;
            let dst = base + W_OFF + lrow * p.l;
            dmem[dst..dst + p.l].copy_from_slice(&w[k * p.l..(k + 1) * p.l]);
            for cls in 0..p.n_classes {
                dmem[base + MEAN_OFF + cls * 128 + lrow] = means[cls * p.k + k];
            }
        }
    }
}

/// Reads the predicted class after a run.
pub fn read_prediction(dmem: &[i32]) -> usize {
    dmem[RESULT_ADDR] as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{MachineConfig, Multicore};

    fn beat(shape: usize, p: &RpParams) -> Vec<i32> {
        (0..p.l)
            .map(|i| {
                let c = p.l as f64 / 2.0;
                let sigma = match shape {
                    0 => 3.0,
                    1 => 9.0,
                    _ => 5.0,
                };
                let d = (i as f64 - c) / sigma;
                (900.0 * (-0.5 * d * d).exp()) as i32
            })
            .collect()
    }

    /// Class means taken from the prototypes themselves.
    fn means_from_prototypes(p: &RpParams) -> Vec<i32> {
        let mut means = vec![0i32; p.n_classes * p.k];
        for cls in 0..p.n_classes {
            let (y, _, _) = host_reference(p, &beat(cls, p), &vec![0; p.n_classes * p.k]);
            for k in 0..p.k {
                means[cls * p.k + k] = y[k] as i32;
            }
        }
        means
    }

    fn run(
        p: &RpParams,
        n_cores: usize,
        x: &[i32],
        means: &[i32],
    ) -> (usize, crate::sim::SimStats) {
        let prog = build_program(p, n_cores).unwrap();
        let cfg = MachineConfig {
            n_cores,
            ..MachineConfig::default()
        };
        let mut m = Multicore::new(cfg, prog).unwrap();
        init_dmem(m.dmem_mut(), p, n_cores, x, means);
        let stats = m.run().unwrap();
        (read_prediction(m.dmem()), stats)
    }

    #[test]
    fn kernel_prediction_matches_host_reference() {
        let p = RpParams::default();
        let means = means_from_prototypes(&p);
        for shape in 0..3 {
            let x = beat(shape, &p);
            let (_, _, host_pred) = host_reference(&p, &x, &means);
            for n_cores in [1, 3] {
                let (sim_pred, _) = run(&p, n_cores, &x, &means);
                assert_eq!(sim_pred, host_pred, "shape {shape}, cores {n_cores}");
            }
        }
    }

    #[test]
    fn prototypes_classify_to_their_own_class() {
        let p = RpParams::default();
        let means = means_from_prototypes(&p);
        for shape in 0..3 {
            let (pred, _) = run(&p, 3, &beat(shape, &p), &means);
            assert_eq!(pred, shape);
        }
    }

    #[test]
    fn divergence_happens_and_barriers_recover() {
        let p = RpParams::default();
        let means = means_from_prototypes(&p);
        let (_, stats) = run(&p, 3, &beat(0, &p), &means);
        // The PWL stage must have forced some unmerged fetches…
        assert!(
            stats.merge_fraction() < 0.999,
            "expected some divergence, merge {}",
            stats.merge_fraction()
        );
        // …and the barriers must have been exercised.
        assert!(stats.barrier_wait_cycles > 0);
        // But the projection loop dominates, so most fetches still merge.
        assert!(
            stats.merge_fraction() > 0.4,
            "merge fraction {}",
            stats.merge_fraction()
        );
    }

    #[test]
    fn pwl_cost_segments() {
        let p = RpParams::default();
        assert_eq!(pwl_cost(&p, 0), 0);
        assert_eq!(pwl_cost(&p, 100), 100); // seg0: slope 1
        assert_eq!(pwl_cost(&p, -100), 100); // symmetric
        assert_eq!(pwl_cost(&p, 300), 2 * 300 - 200); // seg1
        assert_eq!(pwl_cost(&p, 1000), 3 * 1000 - 800); // seg2
        assert_eq!(pwl_cost(&p, 2000), 4 * 2000 - 2200); // seg3
    }

    #[test]
    fn parameters_must_partition() {
        let p = RpParams {
            k: 10,
            ..RpParams::default()
        };
        assert!(build_program(&p, 3).is_err());
        let p2 = RpParams {
            l: 60,
            ..RpParams::default()
        };
        assert!(build_program(&p2, 3).is_err());
    }

    #[test]
    fn sc_and_mc_agree_on_costs() {
        let p = RpParams::default();
        let means = means_from_prototypes(&p);
        let x = beat(1, &p);
        let (pred_sc, _) = run(&p, 1, &x, &means);
        let (pred_mc, _) = run(&p, 3, &x, &means);
        assert_eq!(pred_sc, pred_mc);
    }
}
