//! Central-difference gradient checking for tape-built models.
//!
//! The meta-learning estimators in `crates/meta` (REINFORCE for the filter
//! model, DARTS-style finite differences for the weighting model) sit on top
//! of this crate's hand-rolled reverse-mode autodiff. A silent wrong-gradient
//! bug there corrupts training without failing any existing test, so this
//! module compares every analytic gradient produced by [`Tape::backward`]
//! against a numerical central difference:
//!
//! ```text
//! ∂L/∂θk ≈ (L(θ + ε·ek) − L(θ − ε·ek)) / 2ε
//! ```
//!
//! evaluated by re-running the caller's forward closure with one flat
//! coordinate perturbed at a time. Errors are reported *relative*:
//!
//! ```text
//! rel_err = |analytic − numeric| / max(|analytic|, |numeric|, floor)
//! ```
//!
//! The `floor` keeps near-zero gradients from blowing up the ratio through
//! f32 roundoff alone.
//!
//! # Choosing ε in f32
//!
//! Central differences have truncation error `O(ε²)` and roundoff error
//! `O(u·|L|/ε)` with `u ≈ 6e-8` for f32. For losses of magnitude ~1 the
//! sweet spot is around `ε ≈ 1e-2`: truncation ~1e-4, roundoff ~1e-5. The
//! defaults in [`GradCheckOpts`] encode this; don't shrink `eps` below ~1e-3
//! in f32 or roundoff dominates and every check gets *worse*.
//!
//! [`Tape::backward`]: crate::Tape::backward

use crate::params::ParamStore;

/// Options controlling a gradient check.
#[derive(Debug, Clone)]
pub struct GradCheckOpts {
    /// Finite-difference step (applied per flat coordinate).
    pub eps: f32,
    /// Maximum acceptable relative error for [`GradCheckReport::passed`].
    pub tol: f32,
    /// Denominator floor for the relative error (absolute-error regime for
    /// gradients smaller than this).
    pub denom_floor: f32,
    /// Check every `stride`-th flat coordinate (1 = all). Use >1 to keep
    /// large modules (transformer stacks) fast; coordinates are still drawn
    /// from every parameter tensor because the flat layout interleaves them
    /// only at tensor boundaries.
    pub stride: usize,
}

impl Default for GradCheckOpts {
    fn default() -> Self {
        Self {
            eps: 1e-2,
            tol: 1e-2,
            denom_floor: 5e-2,
            stride: 1,
        }
    }
}

/// One checked coordinate: the analytic/numeric pair and its relative error.
#[derive(Debug, Clone)]
pub struct GradCheckEntry {
    /// Name of the parameter tensor the coordinate lives in.
    pub param: String,
    /// Index within that tensor's flat data.
    pub index: usize,
    /// Gradient from `Tape::backward`.
    pub analytic: f32,
    /// Central-difference estimate.
    pub numeric: f32,
    /// `|analytic − numeric| / max(|analytic|, |numeric|, floor)`.
    pub rel_err: f32,
}

/// Result of [`check`]: summary statistics plus the worst offender.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Number of flat coordinates compared.
    pub checked: usize,
    /// Largest relative error observed.
    pub max_rel_err: f32,
    /// The coordinate with the largest relative error, if any were checked.
    pub worst: Option<GradCheckEntry>,
    /// Tolerance the report was evaluated against (copied from the options).
    pub tol: f32,
}

impl GradCheckReport {
    /// Whether every checked coordinate is within tolerance.
    pub fn passed(&self) -> bool {
        self.max_rel_err <= self.tol
    }

    /// Panic with a readable diagnosis unless the check passed.
    #[track_caller]
    pub fn assert_ok(&self) {
        if let Some(w) = &self.worst {
            assert!(
                self.passed(),
                "gradcheck failed: max rel err {:.4e} > tol {:.1e} at {}[{}] \
                 (analytic {:.6e}, numeric {:.6e}; {} coords checked)",
                self.max_rel_err,
                self.tol,
                w.param,
                w.index,
                w.analytic,
                w.numeric,
                self.checked
            );
        }
        assert!(self.checked > 0, "gradcheck compared zero coordinates");
    }
}

/// Compare analytic tape gradients against central differences over every
/// coordinate of `store`.
///
/// `run` must build the graph from the *current* store values and return the
/// scalar loss; when its second argument is `true` it must additionally call
/// `tape.backward(loss, store)` (gradients are zeroed here beforehand). The
/// closure is invoked once with `backward = true` and then `2·⌈n/stride⌉`
/// times with `backward = false` while coordinates are perturbed. Parameter
/// values are restored before returning.
pub fn check<F>(store: &mut ParamStore, opts: &GradCheckOpts, mut run: F) -> GradCheckReport
where
    F: FnMut(&mut ParamStore, bool) -> f32,
{
    assert!(opts.stride >= 1, "stride must be >= 1");
    store.zero_grad();
    let _ = run(store, true);
    let analytic = store.flat_grads();
    let theta = store.flat_values();

    // Map flat offsets back to (tensor name, local index) for reporting.
    let spans: Vec<(String, usize)> = store
        .ids()
        .map(|id| (store.name(id).to_string(), store.value(id).len()))
        .collect();

    let locate = |flat: usize| -> (String, usize) {
        let mut offset = 0;
        for (name, len) in &spans {
            if flat < offset + len {
                return (name.clone(), flat - offset);
            }
            offset += len;
        }
        ("<unknown>".to_string(), flat)
    };

    let mut report = GradCheckReport {
        checked: 0,
        max_rel_err: 0.0,
        worst: None,
        tol: opts.tol,
    };

    let mut probe = theta.clone();
    let mut k = 0;
    while k < theta.len() {
        probe[k] = theta[k] + opts.eps;
        store.set_flat(&probe);
        let plus = run(store, false);
        probe[k] = theta[k] - opts.eps;
        store.set_flat(&probe);
        let minus = run(store, false);
        probe[k] = theta[k];

        let numeric = (plus - minus) / (2.0 * opts.eps);
        let a = analytic[k];
        let denom = a.abs().max(numeric.abs()).max(opts.denom_floor);
        let rel_err = (a - numeric).abs() / denom;

        report.checked += 1;
        if report.worst.is_none() || rel_err > report.max_rel_err {
            report.max_rel_err = rel_err;
            let (param, index) = locate(k);
            report.worst = Some(GradCheckEntry {
                param,
                index,
                analytic: a,
                numeric,
                rel_err,
            });
        }
        k += opts.stride;
    }

    store.set_flat(&theta);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use crate::tensor::Tensor;
    use crate::Tape;
    use rotom_rng::{rngs::StdRng, SeedableRng};

    fn quadratic_store() -> (ParamStore, crate::ParamId) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let w = store.alloc("w", 2, 3, Initializer::Uniform(0.5), &mut rng);
        (store, w)
    }

    #[test]
    fn passes_on_simple_quadratic() {
        let (mut store, w) = quadratic_store();
        let x = Tensor::from_vec(vec![0.3, -0.7], 1, 2);
        let report = check(&mut store, &GradCheckOpts::default(), |store, backward| {
            let mut tape = Tape::new();
            let xn = tape.input(x.clone());
            let wn = tape.param(w, store);
            let y = tape.matmul(xn, wn);
            let sq = tape.mul(y, y);
            let loss = tape.sum_all(sq);
            let lv = tape.value(loss).item();
            if backward {
                tape.backward(loss, store);
            }
            lv
        });
        report.assert_ok();
        assert_eq!(report.checked, 6);
    }

    #[test]
    fn stride_skips_coordinates_but_restores_values() {
        let (mut store, w) = quadratic_store();
        let before = store.flat_values();
        let x = Tensor::from_vec(vec![0.3, -0.7], 1, 2);
        let opts = GradCheckOpts {
            stride: 4,
            ..Default::default()
        };
        let report = check(&mut store, &opts, |store, backward| {
            let mut tape = Tape::new();
            let xn = tape.input(x.clone());
            let wn = tape.param(w, store);
            let y = tape.matmul(xn, wn);
            let loss = tape.sum_all(y);
            let lv = tape.value(loss).item();
            if backward {
                tape.backward(loss, store);
            }
            lv
        });
        report.assert_ok();
        assert_eq!(report.checked, 2); // indices 0 and 4 of 6
        assert_eq!(store.flat_values(), before);
    }

    #[test]
    fn negative_control_catches_corrupted_gradient() {
        // Deliberately scale one analytic gradient after backward; the
        // checker must flag it. This guards against a checker that
        // trivially "passes" everything.
        let (mut store, w) = quadratic_store();
        let x = Tensor::from_vec(vec![0.3, -0.7], 1, 2);
        let report = check(&mut store, &GradCheckOpts::default(), |store, backward| {
            let mut tape = Tape::new();
            let xn = tape.input(x.clone());
            let wn = tape.param(w, store);
            let y = tape.matmul(xn, wn);
            let sq = tape.mul(y, y);
            let loss = tape.sum_all(sq);
            let lv = tape.value(loss).item();
            if backward {
                tape.backward(loss, store);
                store.grad_mut(w).data_mut()[0] *= 1.5; // sabotage
            }
            lv
        });
        assert!(
            !report.passed(),
            "checker failed to detect a 1.5x-corrupted gradient (max rel err {:.3e})",
            report.max_rel_err
        );
        let worst = report.worst.unwrap();
        assert_eq!(worst.param, "w");
        assert_eq!(worst.index, 0);
    }
}
