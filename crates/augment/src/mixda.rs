//! MixDA interpolation support (Snippext / Miao et al. 2020).
//!
//! MixDA "partially" applies a DA operator by convexly interpolating the LM
//! representation of the augmented sequence with the original one:
//! `h = λ·h(x) + (1−λ)·h(x̂)` with `λ ~ Beta(α, α)` folded to `λ ≥ 0.5`, so
//! the mixed representation always stays closer to the original.
//!
//! The interpolation itself happens at the model's \[CLS\] representation (see
//! `rotom::model`); this module provides the λ sampler and the MixDA batch
//! plan.

use rotom_rng::rngs::StdRng;
use rotom_rng::RngExt;

/// Sample `λ ~ Beta(α, α)` folded to `[0.5, 1]`.
///
/// Uses the Jöhnk/gamma-free method via two uniforms for α ≤ 1 and the ratio
/// of gamma draws approximated by sums for α > 1; for the α values used in
/// practice (0.1–8) a simple rejection-free transformation is sufficient.
pub fn sample_lambda(alpha: f32, rng: &mut StdRng) -> f32 {
    let lambda = sample_beta(alpha, alpha, rng);
    lambda.max(1.0 - lambda)
}

/// Sample from Beta(a, b) via two Gamma draws (Marsaglia–Tsang with boost
/// for shape < 1).
fn sample_beta(a: f32, b: f32, rng: &mut StdRng) -> f32 {
    let x = sample_gamma(a, rng);
    let y = sample_gamma(b, rng);
    if x + y == 0.0 {
        0.5
    } else {
        x / (x + y)
    }
}

fn sample_gamma(shape: f32, rng: &mut StdRng) -> f32 {
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
        let u: f32 = rng.random_range(f32::EPSILON..1.0);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    // Marsaglia–Tsang squeeze method.
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f32 = rng.random_range(f32::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

fn normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.random_range(f32::EPSILON..1.0);
    let u2: f32 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_rng::SeedableRng;

    #[test]
    fn lambda_always_at_least_half() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..500 {
            let l = sample_lambda(0.8, &mut rng);
            assert!((0.5..=1.0).contains(&l), "lambda {l} out of range");
        }
    }

    #[test]
    fn small_alpha_concentrates_at_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 1000;
        let near_one = (0..n)
            .filter(|_| sample_lambda(0.1, &mut rng) > 0.9)
            .count();
        // Beta(0.1, 0.1) is strongly bimodal at {0, 1}; after folding most
        // mass sits near 1.
        assert!(near_one > n / 2, "only {near_one}/{n} samples near 1");
    }

    #[test]
    fn beta_mean_roughly_correct() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 3000;
        let mean: f32 = (0..n).map(|_| sample_beta(2.0, 2.0, &mut rng)).sum::<f32>() / n as f32;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }
}
