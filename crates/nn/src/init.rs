//! Weight initialization schemes.

use crate::tensor::Tensor;
use rotom_rng::rngs::StdRng;
use rotom_rng::RngExt;

/// Initialization scheme for a parameter tensor.
#[derive(Debug)]
pub enum Initializer {
    /// All zeros (biases, layer-norm shift).
    Zeros,
    /// All ones (layer-norm scale).
    Ones,
    /// Uniform in `[-a, a]`.
    Uniform(f32),
    /// Xavier/Glorot uniform: `a = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform,
    /// Normal with the given standard deviation (embedding tables).
    Normal(f32),
}

impl Initializer {
    /// Materialize a `rows x cols` tensor under this scheme.
    pub(crate) fn tensor(self, rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
        match self {
            Initializer::Zeros => Tensor::zeros(rows, cols),
            Initializer::Ones => Tensor::full(rows, cols, 1.0),
            Initializer::Uniform(a) => Tensor::from_vec(
                (0..rows * cols).map(|_| rng.random_range(-a..=a)).collect(),
                rows,
                cols,
            ),
            Initializer::XavierUniform => {
                let a = (6.0 / (rows + cols) as f32).sqrt();
                Initializer::Uniform(a).tensor(rows, cols, rng)
            }
            Initializer::Normal(std) => Tensor::from_vec(
                (0..rows * cols).map(|_| normal_sample(rng) * std).collect(),
                rows,
                cols,
            ),
        }
    }
}

/// Standard normal sample via Box–Muller (avoids a rand_distr dependency).
fn normal_sample(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.random_range(f32::EPSILON..1.0);
    let u2: f32 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_rng::SeedableRng;

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Initializer::XavierUniform.tensor(16, 16, &mut rng);
        let bound = (6.0 / 32.0f32).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn normal_has_roughly_right_std() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Initializer::Normal(0.5).tensor(100, 100, &mut rng);
        let mean = t.sum() / t.len() as f32;
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!((var.sqrt() - 0.5).abs() < 0.05, "std was {}", var.sqrt());
    }

    #[test]
    fn zeros_and_ones() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(Initializer::Zeros
            .tensor(2, 2, &mut rng)
            .data()
            .iter()
            .all(|&v| v == 0.0));
        assert!(Initializer::Ones
            .tensor(2, 2, &mut rng)
            .data()
            .iter()
            .all(|&v| v == 1.0));
    }
}
