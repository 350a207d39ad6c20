//! Parameter storage with flat-vector access.
//!
//! Rotom's meta-training algorithm manipulates model parameters directly:
//! the virtual step `M' = M − η·∇M`, the finite-difference probes
//! `M± = M ± ε·∇M'`, and snapshot/restore around them. `ParamStore` keeps all
//! parameters of a model in one place so these operations are O(|M|) slice
//! walks rather than per-layer bookkeeping.

use crate::init::Initializer;
use crate::kernels::{self, PackedB, NR};
use crate::tensor::Tensor;
use rotom_rng::rngs::StdRng;
use std::sync::{Arc, OnceLock};

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy)]
pub struct ParamId(pub(crate) usize);

/// Lazily packed GEMM panels of one parameter *generation*.
///
/// The store hands out the current generation's slot via
/// `ParamStore::packs`; every value mutation swaps in a fresh slot, so a
/// tape that cloned the `Arc` at node-creation time keeps panels consistent
/// with its own value snapshot while the store moves on. Panels fill on
/// first use — a GEMM that dispatches to the naive kernel (below
/// [`SMALL_FLOPS`](crate::kernels::SMALL_FLOPS)) never asks for them.
/// That laziness is what makes the cache affordable in the meta-training
/// loop, where every parameter is invalidated about five times per step
/// (virtual step, two probes, restore, optimizer): only the few matrices
/// whose GEMMs actually cross the tiled threshold get re-packed, at most
/// once per generation each.
///
/// Panel *presence* never changes results — the prepacked kernels are
/// bit-identical to cold packing and share the naive fall-back dispatch.
#[derive(Default)]
pub struct ParamPacks {
    direct: OnceLock<PackedB>,
    transposed: OnceLock<PackedB>,
}

impl ParamPacks {
    /// Panels of `value` as the direct `B` operand of a `full_m`-row
    /// `A·B`, built on first use. `value` must be the snapshot this slot's
    /// generation was taken from (concurrent fills then race benignly:
    /// every caller packs identical bytes). `None` below the tiled tier
    /// ([`kernels::tiled`]) and for shapes the tiled path cannot read
    /// (fewer than 2 rows or [`NR`] columns).
    pub(crate) fn direct(&self, value: &Tensor, full_m: usize) -> Option<&PackedB> {
        let (rows, cols) = (value.rows(), value.cols());
        if !kernels::tiled(full_m, rows, cols) || rows < 2 || cols < NR {
            return None;
        }
        Some(
            self.direct
                .get_or_init(|| PackedB::pack_row_major(value.data(), rows, cols)),
        )
    }

    /// Panels of `value`'s *transpose* (the `Bᵀ` operand of a `full_m`-row
    /// `dA = dC·Bᵀ` backward contraction), built on first use. Same snapshot
    /// contract and tier rule as [`direct`](Self::direct). `None` when the
    /// transpose has no full strip (fewer than [`NR`] rows).
    pub(crate) fn transposed(&self, value: &Tensor, full_m: usize) -> Option<&PackedB> {
        let (rows, cols) = (value.rows(), value.cols());
        if !kernels::tiled(full_m, rows, cols) || cols < 2 || rows < NR {
            return None;
        }
        Some(
            self.transposed
                .get_or_init(|| PackedB::pack_transposed(value.data(), cols, rows)),
        )
    }
}

struct ParamEntry {
    name: String,
    value: Tensor,
    grad: Tensor,
    /// Bumped on every value mutation; pairs with the pack cache so packing
    /// cost is paid at most once per generation, not once per matmul.
    generation: u64,
    /// Current generation's pack slot, shared with tapes via `Arc` (fills
    /// happen through `&self` because parameter reads run concurrently
    /// across pool workers during forward fan-out).
    packs: Arc<ParamPacks>,
}

impl ParamEntry {
    fn invalidate(&mut self) {
        self.generation += 1;
        // Reuse the slot allocation when no tape still holds it; otherwise
        // detach a fresh slot and let the tapes keep the old generation's.
        match Arc::get_mut(&mut self.packs) {
            Some(p) => *p = ParamPacks::default(),
            None => self.packs = Arc::new(ParamPacks::default()),
        }
    }
}

/// A flat store of named parameters with matching gradient buffers.
#[derive(Default)]
pub struct ParamStore {
    entries: Vec<ParamEntry>,
}

impl ParamStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter initialized by `init`.
    pub fn alloc(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        init: Initializer,
        rng: &mut StdRng,
    ) -> ParamId {
        let value = init.tensor(rows, cols, rng);
        self.push(name, value)
    }

    /// Register a parameter with an explicit initial value.
    pub fn push(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.rows(), value.cols());
        self.entries.push(ParamEntry {
            name: name.into(),
            value,
            grad,
            generation: 0,
            packs: Arc::new(ParamPacks::default()),
        });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub(crate) fn num_params(&self) -> usize {
        self.entries.len()
    }

    /// Total number of scalar parameters across all tensors.
    pub(crate) fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Name of a parameter.
    pub(crate) fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Borrow a parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Mutably borrow a parameter value. Invalidates the packed-panel cache
    /// and bumps the generation counter (the borrow may mutate).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        let e = &mut self.entries[id.0];
        e.invalidate();
        &mut e.value
    }

    /// Mutation generation of a parameter: bumped every time the value is
    /// (potentially) written. Packs and other value-derived caches are valid
    /// exactly as long as the generation is unchanged.
    pub fn generation(&self, id: ParamId) -> u64 {
        self.entries[id.0].generation
    }

    /// Sum of all parameter generations — a cheap fingerprint of "has any
    /// value possibly changed". Monotonically non-decreasing (generations
    /// only ever grow), so one `u64` names a parameter state, as the
    /// serving planes report with every batch.
    pub fn generation_sum(&self) -> u64 {
        self.entries.iter().map(|e| e.generation).sum()
    }

    /// The current generation's pack slot for a parameter. Tapes clone the
    /// `Arc` when they snapshot the value, then fill panels lazily through
    /// [`ParamPacks::direct`]/[`ParamPacks::transposed`] only when a GEMM
    /// actually dispatches to the tiled path.
    pub(crate) fn packs(&self, id: ParamId) -> Arc<ParamPacks> {
        Arc::clone(&self.entries[id.0].packs)
    }

    /// Borrow a parameter gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].grad
    }

    /// Mutably borrow a parameter gradient.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].grad
    }

    /// Iterate over all parameter ids.
    pub(crate) fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.entries.len()).map(ParamId)
    }

    /// Zero all gradient buffers.
    pub fn zero_grad(&mut self) {
        for e in &mut self.entries {
            e.grad.data_mut().fill(0.0);
        }
    }

    /// Concatenate all parameter values into one vector.
    pub fn flat_values(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_scalars());
        self.flat_values_into(&mut out);
        out
    }

    /// [`flat_values`](Self::flat_values) into a caller buffer: clears and
    /// refills `out` in place, so a checkpoint buffer reused across epochs
    /// allocates only on first use (or growth).
    pub fn flat_values_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.num_scalars());
        for e in &self.entries {
            out.extend_from_slice(e.value.data());
        }
    }

    /// Concatenate all parameter gradients into one vector.
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_scalars());
        for e in &self.entries {
            out.extend_from_slice(e.grad.data());
        }
        out
    }

    /// Overwrite all values from a flat vector produced by
    /// [`flat_values`](Self::flat_values).
    pub fn set_flat(&mut self, flat: &[f32]) {
        let mut offset = 0;
        for e in &mut self.entries {
            let n = e.value.len();
            e.invalidate();
            e.value
                .data_mut()
                .copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
        assert_eq!(offset, flat.len(), "flat vector length mismatch");
    }

    /// In-place `values += alpha * delta` over all parameters, where
    /// `delta` is a flat vector aligned with [`flat_values`](Self::flat_values).
    pub fn add_scaled_flat(&mut self, delta: &[f32], alpha: f32) {
        let mut offset = 0;
        for e in &mut self.entries {
            let n = e.value.len();
            e.invalidate();
            for (v, &d) in e
                .value
                .data_mut()
                .iter_mut()
                .zip(&delta[offset..offset + n])
            {
                *v += alpha * d;
            }
            offset += n;
        }
        assert_eq!(offset, delta.len(), "flat vector length mismatch");
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.entries
            .iter()
            .map(|e| e.grad.data().iter().map(|g| g * g).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scale all gradients so their global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for e in &mut self.entries {
                for g in e.grad.data_mut() {
                    *g *= scale;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_rng::SeedableRng;

    fn store() -> (ParamStore, ParamId, ParamId) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = ParamStore::new();
        let a = s.alloc("a", 2, 3, Initializer::Uniform(0.1), &mut rng);
        let b = s.alloc("b", 1, 4, Initializer::Zeros, &mut rng);
        (s, a, b)
    }

    #[test]
    fn flat_roundtrip() {
        let (mut s, _, _) = store();
        let flat = s.flat_values();
        assert_eq!(flat.len(), 10);
        let mut modified = flat.clone();
        for v in &mut modified {
            *v += 1.0;
        }
        s.set_flat(&modified);
        assert_eq!(s.flat_values(), modified);
    }

    #[test]
    fn add_scaled_flat_moves_values() {
        let (mut s, _, _) = store();
        let before = s.flat_values();
        let delta = vec![2.0; before.len()];
        s.add_scaled_flat(&delta, 0.5);
        let after = s.flat_values();
        for (b, a) in before.iter().zip(&after) {
            assert!((a - b - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn clip_grad_norm_bounds_norm() {
        let (mut s, a, _) = store();
        s.grad_mut(a).data_mut().fill(10.0);
        assert!(s.grad_norm() > 5.0);
        s.clip_grad_norm(1.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn zero_grad_clears() {
        let (mut s, a, _) = store();
        s.grad_mut(a).data_mut().fill(3.0);
        s.zero_grad();
        assert_eq!(s.grad_norm(), 0.0);
    }
}
