//! Optimizers operating on a [`ParamStore`].

use crate::checkpoint::{CheckpointError, StateBag};
use crate::params::ParamStore;
use crate::tensor::Tensor;

/// Adam with bias correction (Kingma & Ba, 2015) — the optimizer the paper
/// uses for both the target model and the policy models.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Standard Adam with `beta1=0.9, beta2=0.999, eps=1e-8`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replace the learning rate.
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Apply one update from the gradients currently in `store`.
    pub fn step(&mut self, store: &mut ParamStore) {
        if self.m.len() != store.num_params() {
            self.m = store
                .ids()
                .map(|id| Tensor::zeros(store.value(id).rows(), store.value(id).cols()))
                .collect();
            self.v = self.m.clone();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (k, id) in store.ids().collect::<Vec<_>>().into_iter().enumerate() {
            {
                let grad = store.grad(id);
                let m = &mut self.m[k];
                let v = &mut self.v[k];
                for ((mm, vv), &g) in m.data_mut().iter_mut().zip(v.data_mut()).zip(grad.data()) {
                    *mm = self.beta1 * *mm + (1.0 - self.beta1) * g;
                    *vv = self.beta2 * *vv + (1.0 - self.beta2) * g * g;
                }
            }
            let lr = self.lr;
            let eps = self.eps;
            let (m, v) = (&self.m[k], &self.v[k]);
            let value = store.value_mut(id);
            for ((val, &mm), &vv) in value.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let mhat = mm / bc1;
                let vhat = vv / bc2;
                *val -= lr * (mhat / (vhat.sqrt() + eps));
            }
        }
    }

    /// Save the full optimizer state (step counter + both moment vectors,
    /// flattened) into `bag` under `prefix`. An optimizer that has never
    /// stepped saves empty moments and `t = 0`.
    pub fn save_state(&self, bag: &mut StateBag, prefix: &str) {
        bag.put_u64(format!("{prefix}.t"), self.t);
        let mut m = Vec::new();
        let mut v = Vec::new();
        for t in &self.m {
            m.extend_from_slice(t.data());
        }
        for t in &self.v {
            v.extend_from_slice(t.data());
        }
        bag.put_f32s(format!("{prefix}.m"), m);
        bag.put_f32s(format!("{prefix}.v"), v);
    }

    /// Restore optimizer state saved by [`save_state`](Self::save_state),
    /// rebuilding per-parameter moment shapes from `store` (which must match
    /// the store the state was saved against).
    pub fn load_state(
        &mut self,
        bag: &StateBag,
        prefix: &str,
        store: &ParamStore,
    ) -> Result<(), CheckpointError> {
        let t = bag.get_u64(&format!("{prefix}.t"))?;
        let m = bag.get_f32s(&format!("{prefix}.m"))?;
        let v = bag.get_f32s(&format!("{prefix}.v"))?;
        if m.is_empty() && v.is_empty() {
            self.t = t;
            self.m.clear();
            self.v.clear();
            return Ok(());
        }
        let total: usize = store.ids().map(|id| store.value(id).data().len()).sum();
        if m.len() != total || v.len() != total {
            return Err(CheckpointError::Mismatch(format!(
                "optimizer {prefix:?}: moment length {}/{} vs {} store parameters",
                m.len(),
                v.len(),
                total
            )));
        }
        let unflatten = |flat: &[f32]| {
            let mut out = Vec::with_capacity(store.num_params());
            let mut off = 0;
            for id in store.ids() {
                let (rows, cols) = (store.value(id).rows(), store.value(id).cols());
                let n = rows * cols;
                out.push(Tensor::from_vec(flat[off..off + n].to_vec(), rows, cols));
                off += n;
            }
            out
        };
        self.t = t;
        self.m = unflatten(m);
        self.v = unflatten(v);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Tape;
    use crate::init::Initializer;
    use crate::tensor::Tensor;
    use rotom_rng::rngs::StdRng;
    use rotom_rng::SeedableRng;

    /// Minimize ||W x - y||-ish quadratic via cross-entropy on a 2-class toy
    /// problem and check the loss decreases monotonically-ish.
    fn train_toy(mut step: impl FnMut(&mut ParamStore)) -> (f32, f32) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let w = store.alloc("w", 2, 2, Initializer::Uniform(0.5), &mut rng);
        let x = Tensor::from_vec(vec![1.0, -1.0], 1, 2);
        let target = vec![1.0, 0.0];
        let loss_of = |store: &mut ParamStore, backward: bool| {
            let mut tape = Tape::new();
            let xin = tape.input(x.clone());
            let wn = tape.param(w, store);
            let logits = tape.matmul(xin, wn);
            let loss = tape.cross_entropy(logits, &target);
            let lv = tape.value(loss).item();
            if backward {
                store.zero_grad();
                tape.backward(loss, store);
            }
            lv
        };
        let first = loss_of(&mut store, true);
        for _ in 0..50 {
            step(&mut store);
            let _ = loss_of(&mut store, true);
        }
        let last = loss_of(&mut store, false);
        (first, last)
    }

    #[test]
    fn adam_decreases_loss() {
        let mut opt = Adam::new(0.1);
        let (first, last) = train_toy(|s| opt.step(s));
        assert!(last < first * 0.5, "adam failed: {first} -> {last}");
    }

    #[test]
    fn adam_state_roundtrip_resumes_bit_identically() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store_a = ParamStore::new();
        store_a.alloc("w", 3, 4, Initializer::Uniform(0.5), &mut rng);
        let mut store_b = ParamStore::new();
        for id in store_a.ids().collect::<Vec<_>>() {
            store_b.push("w", store_a.value(id).clone());
        }
        let grad = |s: &mut ParamStore, k: usize| {
            let id = s.ids().next().unwrap();
            for (i, g) in s.grad_mut(id).data_mut().iter_mut().enumerate() {
                *g = ((i + k) as f32 * 0.37).sin();
            }
        };
        let mut opt_a = Adam::new(0.05);
        let mut opt_b = Adam::new(0.05);
        for k in 0..5 {
            grad(&mut store_a, k);
            opt_a.step(&mut store_a);
            grad(&mut store_b, k);
            opt_b.step(&mut store_b);
        }
        // Checkpoint A, continue it, then resume a fresh optimizer from the
        // checkpoint and replay the same tail: must match bit-for-bit.
        let mut bag = crate::checkpoint::StateBag::new();
        opt_a.save_state(&mut bag, "opt");
        let bag = crate::checkpoint::StateBag::parse(&bag.serialize()).unwrap();
        let frozen = store_a.flat_values();
        for k in 5..9 {
            grad(&mut store_a, k);
            opt_a.step(&mut store_a);
        }
        let mut opt_c = Adam::new(0.05);
        opt_c.load_state(&bag, "opt", &store_b).unwrap();
        store_b.set_flat(&frozen);
        for k in 5..9 {
            grad(&mut store_b, k);
            opt_c.step(&mut store_b);
        }
        assert_eq!(store_a.flat_values(), store_b.flat_values());
    }

    #[test]
    fn adam_load_state_rejects_wrong_length() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        store.alloc("w", 2, 2, Initializer::Uniform(0.5), &mut rng);
        let mut bag = crate::checkpoint::StateBag::new();
        bag.put_u64("opt.t", 3);
        bag.put_f32s("opt.m", vec![0.0; 5]);
        bag.put_f32s("opt.v", vec![0.0; 5]);
        let mut opt = Adam::new(0.1);
        assert!(opt.load_state(&bag, "opt", &store).is_err());
    }
}
