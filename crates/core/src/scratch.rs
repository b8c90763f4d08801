//! Reusable scratch buffers for the simulator's tile pipeline.
//!
//! Every spatial tile of the loop nest in [`crate::accelerator`] needs the
//! same five working buffers: the DWC input window, the DWC accumulator
//! tile, the Non-Conv'd intermediate tile, the PWC partial-sum tile, and
//! (per portion) the psum banks plus the portion-local mid/output maps. The
//! original hot path allocated all of them afresh on every tile — the
//! software equivalent of the external-memory round trips the paper's
//! direct data transfer eliminates. A [`TileScratch`] owns them instead:
//! [`TileScratch::reserve`] grows each buffer to the layer's largest shape
//! once per layer run, and every later reshape
//! ([`edea_tensor::Tensor3::resize_zeroed`]) reuses the allocation, so the
//! steady-state tile loop performs **zero heap allocations** (guarded by
//! the allocation-regression test in `crates/core/tests`).
//!
//! A scratch outlives a layer run: the accelerator's network walker
//! (behind `Edea::run_network_planned`, `Edea::run_batch` and the serving
//! backend) threads one scratch through every layer, and its capacity
//! grows monotonically to the largest layer it has seen.

use edea_nn::workload::LayerShape;
use edea_tensor::Tensor3;

use crate::config::EdeaConfig;

/// The per-layer-run scratch arena: one set of tile buffers reused across
/// tiles, kernel tiles, channel passes, portions and images.
#[derive(Debug, Clone)]
pub struct TileScratch {
    /// The `(Td, Tr, Tc)` DWC input window of the current tile.
    pub(crate) window: Tensor3<i8>,
    /// The `(Td, Tn, Tm)` DWC accumulator tile.
    pub(crate) dwc_acc: Tensor3<i32>,
    /// The `(Td, Tn, Tm)` intermediate tile (Non-Conv output).
    pub(crate) mid_tile: Tensor3<i8>,
    /// The `(Tk, Tn, Tm)` PWC partial-sum tile.
    pub(crate) pwc_partial: Tensor3<i32>,
    /// Per-image psum banks for the current portion,
    /// `(K, portion rows, portion cols)` each.
    pub(crate) psums: Vec<Tensor3<i32>>,
    /// The `(K, portion rows, portion cols)` residual window fetched at
    /// the drain of an inverted-residual add stage (unused otherwise).
    pub(crate) res_tile: Tensor3<i8>,
    /// Lane-private sub-scratches for the parallel portion loop (lane 0
    /// reuses this scratch itself; lane `i + 1` owns `lanes[i]`). Empty
    /// until a parallel run reserves them; a serial run never touches it.
    pub(crate) lanes: Vec<TileScratch>,
    /// Portion-local intermediate maps, one slot per `(portion, image)`,
    /// pasted into the full mid maps in portion order after all lanes join.
    pub(crate) portion_mids: Vec<Tensor3<i8>>,
    /// Portion-local drained outputs (after the output-side Non-Conv), one
    /// slot per `(portion, image)`, pasted in portion order after the join.
    pub(crate) portion_outs: Vec<Tensor3<i8>>,
}

impl Default for TileScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl TileScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            window: Tensor3::zeros(1, 1, 1),
            dwc_acc: Tensor3::zeros(1, 1, 1),
            mid_tile: Tensor3::zeros(1, 1, 1),
            pwc_partial: Tensor3::zeros(1, 1, 1),
            psums: Vec::new(),
            res_tile: Tensor3::zeros(1, 1, 1),
            lanes: Vec::new(),
            portion_mids: Vec::new(),
            portion_outs: Vec::new(),
        }
    }

    /// Grows every buffer so a run of layer `s` with `n_images` in-flight
    /// images never allocates in the tile loop. Only the window is
    /// *shaped* here (its shape defines the extraction extent; its
    /// contents are fully overwritten per tile) — every other buffer gets
    /// capacity only, since its consumer reshapes it with
    /// [`Tensor3::resize_zeroed`] before use. Capacity only ever grows —
    /// reserving for a smaller layer after a larger one is free.
    pub fn reserve(&mut self, s: &LayerShape, cfg: &EdeaConfig, n_images: usize) {
        let t = &cfg.tile;
        let tr = (t.tn - 1) * s.stride + s.kernel;
        let tc = (t.tm - 1) * s.stride + s.kernel;
        self.window.resize_zeroed(t.td, tr, tc);
        self.dwc_acc.reserve_capacity(t.td * t.tn * t.tm);
        self.mid_tile.reserve_capacity(t.td * t.tn * t.tm);
        self.pwc_partial.reserve_capacity(t.tk * t.tn * t.tm);
        // The largest portion is bounded by the portion limit and the map.
        let pmax = s.out_spatial().min(cfg.portion_limit).max(1);
        let bank = s.k_out * pmax * pmax;
        while self.psums.len() < n_images {
            self.psums.push(Tensor3::zeros(1, 1, 1));
        }
        for psum in self.psums.iter_mut().take(n_images) {
            psum.reserve_capacity(bank);
        }
        if s.residual_add {
            self.res_tile.reserve_capacity(bank);
        }
    }

    /// Grows the per-`(portion, image)` output slots so the portion loop —
    /// serial or parallel — writes portion-local mids/outs without
    /// allocating in steady state. Slot vectors only ever grow, like the
    /// psum banks.
    pub(crate) fn reserve_portion_slots(
        &mut self,
        s: &LayerShape,
        cfg: &EdeaConfig,
        n_slots: usize,
    ) {
        let pmax = s.out_spatial().min(cfg.portion_limit).max(1);
        while self.portion_mids.len() < n_slots {
            self.portion_mids.push(Tensor3::zeros(1, 1, 1));
        }
        while self.portion_outs.len() < n_slots {
            self.portion_outs.push(Tensor3::zeros(1, 1, 1));
        }
        for mid in self.portion_mids.iter_mut().take(n_slots) {
            mid.reserve_capacity(s.d_in * pmax * pmax);
        }
        for out in self.portion_outs.iter_mut().take(n_slots) {
            out.reserve_capacity(s.k_out * pmax * pmax);
        }
    }

    /// Grows the lane-private sub-scratch pool to `extra` entries (for
    /// lanes `1..=extra`; lane 0 reuses this scratch) and reserves each
    /// for layer `s`, so the parallel tile loops stay allocation-free in
    /// steady state.
    pub(crate) fn ensure_lanes(
        &mut self,
        extra: usize,
        s: &LayerShape,
        cfg: &EdeaConfig,
        n_images: usize,
    ) {
        while self.lanes.len() < extra {
            self.lanes.push(TileScratch::new());
        }
        for lane in self.lanes.iter_mut().take(extra) {
            lane.reserve(s, cfg, n_images);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edea_nn::workload::mobilenet_v1_cifar10;

    #[test]
    fn reserve_sizes_buffers_for_the_layer() {
        let cfg = EdeaConfig::paper();
        let mut scratch = TileScratch::new();
        let layers = mobilenet_v1_cifar10();
        scratch.reserve(&layers[0], &cfg, 2);
        // The stride-1 window is shaped (its shape drives window
        // extraction); the rest get capacity for their steady-state
        // shapes, so the resizes their consumers perform cannot allocate.
        assert_eq!(scratch.window.shape(), (8, 4, 4));
        assert_eq!(scratch.psums.len(), 2);
        let bank = layers[0].k_out * 8 * 8;
        scratch.psums[0].resize_zeroed(layers[0].k_out, 8, 8);
        assert_eq!(scratch.psums[0].len(), bank);
        scratch.dwc_acc.resize_zeroed(8, 2, 2);
        scratch.pwc_partial.resize_zeroed(16, 2, 2);
        // A stride-2 layer widens the window to 5×5.
        let stride2 = layers.iter().find(|l| l.stride == 2).unwrap();
        scratch.reserve(stride2, &cfg, 1);
        assert_eq!(scratch.window.shape(), (8, 5, 5));
        // Extra psum banks from the previous reserve are kept, not freed.
        assert_eq!(scratch.psums.len(), 2);
    }
}
