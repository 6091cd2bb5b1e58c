//! Tape-free inference engine: `predict_fast` (f32) and
//! `predict_int8`.
//!
//! [`VoyagerModel::predict`] builds a full autograd
//! [`Session`](voyager_nn::Session) per call: every parameter tensor is
//! cloned onto the tape, every op allocates its output, and the tape
//! records backward metadata that inference never uses. This module
//! executes the same forward graph directly:
//!
//! * **No autograd bookkeeping** — weights are read in place from the
//!   [`ParamStore`](voyager_nn::ParamStore); nothing is cloned.
//! * **Preallocated buffer arena** — every intermediate lives in a
//!   per-model [`Arena`] slot that is resized in place, so steady-state
//!   calls (same batch shape) perform zero heap allocation in the hot
//!   loop.
//! * **Bounded-heap top-k** — candidate selection goes through
//!   [`voyager_tensor::topk`], shared with the tape path.
//!
//! The f32 path is **bitwise identical** to the tape path: it runs the
//! same time-major window (`[seq_len·batch, ..]` rows) through the same
//! GEMM kernels and the same forward math the tape ops use — the LSTM
//! sequence is [`voyager_tensor::infer::lstm_seq_forward`] in both, the
//! softmax is [`softmax_rows_inplace`]. The int8 path swaps the four big
//! GEMMs (two fused LSTM gate matrices, two heads) for
//! [`voyager_nn::qinfer`] quantized layers over the `i8×i8→i32` kernel
//! (every step's input projection at once, the recurrent product step
//! by step) and shares the f32 [`lstm_cell`] update; embeddings,
//! attention, and gate nonlinearities stay in f32, mirroring the
//! paper's Section 5.4 scheme (8-bit weights, <1% accuracy loss).

use std::cmp::Ordering;

use voyager_nn::{
    HierarchicalSoftmax, ParamStore, QuantizedHierHead, QuantizedLinear, QuantizedLstm,
    SoftLabelExtractor, SoftLabels, PAD_MASK,
};
use voyager_tensor::infer::{
    add_row_inplace, lstm_cell, lstm_seq_forward, note_fast_path_call, quantize_rows_into,
    softmax_rows_inplace, Arena, BufId, QuantizedRows,
};
use voyager_tensor::kernels::{gemm, gemm_slices, Layout};
use voyager_tensor::{topk, Tensor2};

use crate::model::{PageHead, SeqBatch};
use crate::VoyagerModel;

/// Arena slot ids for every intermediate of one forward pass. The same
/// slots are reused across calls.
#[derive(Debug, Clone, Copy)]
struct Slots {
    pc_e: BufId,
    page_e: BufId,
    off_e: BufId,
    scores: BufId,
    mixed: BufId,
    /// Time-major LSTM input, `[seq_len·batch, input]`.
    x: BufId,
    gates: BufId,
    /// One timestep's gates (int8 path).
    step_gates: BufId,
    cells: BufId,
    hs: BufId,
    page_h: BufId,
    page_c: BufId,
    off_h: BufId,
    off_c: BufId,
    page_logits: BufId,
    off_logits: BufId,
}

/// Int8 weights prepared by [`VoyagerModel::prepare_int8`]: the four
/// GEMM-heavy parameter tensors, quantized once and cached.
#[derive(Debug)]
struct Int8Weights {
    page_lstm: QuantizedLstm,
    offset_lstm: QuantizedLstm,
    page_head: Int8PageHead,
    offset_head: QuantizedLinear,
}

/// Quantized form of the configured page head.
#[derive(Debug)]
enum Int8PageHead {
    Dense(QuantizedLinear),
    Hier(QuantizedHierHead),
}

/// Reusable scratch for the hierarchical page head: cluster
/// probabilities, one branch-logit row, the top-k shortlist, and the
/// flattened `(class, probability)` candidate lists with per-row
/// `[start, end)` extents. Buffers are `resize`d in place, so
/// steady-state calls allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct HierScratch {
    /// `[batch, clusters]` cluster probabilities.
    cluster: Tensor2,
    /// `[1, branch]` leaf logits (then probabilities) of one cluster.
    branch: Tensor2,
    /// Shortlisted cluster ids of the current row.
    top: Vec<usize>,
    /// Bounded top-k heap storage.
    heap: Vec<(f32, usize)>,
    /// Candidate page classes, all rows concatenated.
    classes: Vec<u32>,
    /// Candidate probabilities (`p_cluster * p_branch`), parallel to
    /// `classes`.
    probs: Vec<f32>,
    /// Per-row `[start, end)` extents into `classes` / `probs`.
    rows: Vec<(usize, usize)>,
}

/// Reusable scratch for [`rank_row`]: the bounded top-k heap and the
/// selected page/offset index lists.
#[derive(Debug, Default)]
pub(crate) struct RankScratch {
    heap: Vec<(f32, usize)>,
    pages: Vec<usize>,
    offsets: Vec<usize>,
}

/// Per-model tape-free inference state: the buffer arena, activation
/// quantization scratch, ranking scratch, and cached int8 weights.
#[derive(Debug, Default)]
pub(crate) struct InferState {
    slots: Option<Slots>,
    arena: Arena,
    qx: QuantizedRows,
    qh: QuantizedRows,
    pub(crate) rank: RankScratch,
    pub(crate) hier: HierScratch,
    int8: Option<Int8Weights>,
}

impl InferState {
    fn ensure_slots(&mut self) -> Slots {
        if let Some(s) = self.slots {
            return s;
        }
        let s = Slots {
            pc_e: self.arena.register(),
            page_e: self.arena.register(),
            off_e: self.arena.register(),
            scores: self.arena.register(),
            mixed: self.arena.register(),
            x: self.arena.register(),
            gates: self.arena.register(),
            step_gates: self.arena.register(),
            cells: self.arena.register(),
            hs: self.arena.register(),
            page_h: self.arena.register(),
            page_c: self.arena.register(),
            off_h: self.arena.register(),
            off_c: self.arena.register(),
            page_logits: self.arena.register(),
            off_logits: self.arena.register(),
        };
        self.slots = Some(s);
        s
    }
}

/// Ranks up to `k` `(page, offset, score)` candidates for one batch
/// row, exactly as the historical `predict` loop did: top `k` pages ×
/// top `min(k, 4)` offsets, scored by probability product, stable-
/// sorted descending. Shared by the tape and tape-free paths.
pub(crate) fn rank_row(
    page_probs: &Tensor2,
    offset_probs: &Tensor2,
    row: usize,
    k: usize,
    page_vocab: usize,
    offset_vocab: usize,
    scratch: &mut RankScratch,
) -> Vec<(u32, u32, f32)> {
    let fan = k.clamp(1, 4);
    topk::topk_into(
        page_probs.row(row),
        k.min(page_vocab),
        &mut scratch.heap,
        &mut scratch.pages,
    );
    topk::topk_into(
        offset_probs.row(row),
        fan.min(offset_vocab),
        &mut scratch.heap,
        &mut scratch.offsets,
    );
    let mut pairs: Vec<(u32, u32, f32)> =
        Vec::with_capacity(scratch.pages.len() * scratch.offsets.len());
    for &p in &scratch.pages {
        for &o in &scratch.offsets {
            pairs.push((
                p as u32,
                o as u32,
                page_probs.get(row, p) * offset_probs.get(row, o),
            ));
        }
    }
    // Stable insertion sort, descending by score — same order as the
    // historical `sort_by(|a, b| b.2.total_cmp(&a.2))`, without the
    // stable sort's allocation.
    for i in 1..pairs.len() {
        let mut j = i;
        while j > 0 && pairs[j].2.total_cmp(&pairs[j - 1].2) == Ordering::Greater {
            pairs.swap(j, j - 1);
            j -= 1;
        }
    }
    pairs.truncate(k);
    pairs
}

/// Scores the hierarchical page head (f32): one `[batch, clusters]`
/// cluster GEMM + softmax, then — per row — branch GEMMs for only the
/// top-`fan` clusters. Leaves `(class, p_cluster * p_branch)` candidate
/// lists in `scratch`. This is the ONE scoring routine both
/// [`VoyagerModel::predict`] and [`VoyagerModel::predict_fast`] call,
/// so the two paths agree bit for bit by construction.
pub(crate) fn hier_candidates(
    store: &ParamStore,
    hs: &HierarchicalSoftmax,
    h: &Tensor2,
    fan: usize,
    scratch: &mut HierScratch,
) {
    let b = h.rows();
    let (clusters, branch) = (hs.clusters(), hs.branch());
    let hidden = hs.hidden();
    scratch.cluster.resize(b, clusters);
    gemm(
        h,
        store.value(hs.cluster_head().weight_id()),
        Layout::NN,
        &mut scratch.cluster,
    );
    add_row_inplace(
        &mut scratch.cluster,
        store.value(hs.cluster_head().bias_id()).as_slice(),
    );
    softmax_rows_inplace(&mut scratch.cluster);
    let leaves = store.value(hs.leaves_id()).as_slice();
    hier_score_shortlist(
        clusters,
        branch,
        hs.num_classes(),
        fan,
        scratch,
        |row, c, out| {
            // One [1, branch] GEMM against the cluster's leaf block
            // (leaves are [class, hidden] row-major, so NT layout).
            gemm_slices(
                h.row(row),
                &leaves[c * branch * hidden..(c + 1) * branch * hidden],
                Layout::NT,
                1,
                branch,
                hidden,
                out,
                false,
            );
        },
    );
}

/// Int8 twin of [`hier_candidates`]: cluster logits and shortlisted
/// branch logits run through the quantized head; shortlist logic and
/// softmaxes are shared.
pub(crate) fn hier_candidates_int8(
    qhead: &QuantizedHierHead,
    qx: &QuantizedRows,
    fan: usize,
    scratch: &mut HierScratch,
) {
    let (b, _) = qx.shape();
    scratch.cluster.resize(b, qhead.clusters());
    qhead.cluster_logits_into(qx, &mut scratch.cluster);
    softmax_rows_inplace(&mut scratch.cluster);
    hier_score_shortlist(
        qhead.clusters(),
        qhead.branch(),
        qhead.num_classes(),
        fan,
        scratch,
        |row, c, out| qhead.branch_logits_into(qx, row, c, out),
    );
}

/// Shared shortlist core: per row, pick the top-`fan` clusters from the
/// (already softmaxed) cluster probabilities in `scratch.cluster`, have
/// `branch_logits_into(row, cluster, out)` fill each shortlisted
/// cluster's branch logits, mask padding slots with [`PAD_MASK`],
/// softmax, and emit `(class, p_cluster * p_branch)` candidates.
fn hier_score_shortlist(
    clusters: usize,
    branch: usize,
    num_classes: usize,
    fan: usize,
    scratch: &mut HierScratch,
    mut branch_logits_into: impl FnMut(usize, usize, &mut [f32]),
) {
    let b = scratch.cluster.rows();
    scratch.branch.resize(1, branch);
    scratch.classes.clear();
    scratch.probs.clear();
    scratch.rows.clear();
    let fan = fan.clamp(1, clusters);
    for row in 0..b {
        let start = scratch.classes.len();
        topk::topk_into(
            scratch.cluster.row(row),
            fan,
            &mut scratch.heap,
            &mut scratch.top,
        );
        for i in 0..scratch.top.len() {
            let c = scratch.top[i];
            let pc = scratch.cluster.get(row, c);
            let out = scratch.branch.row_mut(0);
            branch_logits_into(row, c, out);
            // Only the last cluster can hold padding; the additive
            // mask matches the tape path's `mask_branch_logits`.
            for (j, o) in out.iter_mut().enumerate() {
                if c * branch + j >= num_classes {
                    *o += PAD_MASK;
                }
            }
            softmax_rows_inplace(&mut scratch.branch);
            let brow = scratch.branch.row(0);
            for (j, &pb) in brow.iter().enumerate().take(branch) {
                let class = c * branch + j;
                if class < num_classes {
                    scratch.classes.push(class as u32);
                    scratch.probs.push(pc * pb);
                }
            }
        }
        scratch.rows.push((start, scratch.classes.len()));
    }
}

/// [`rank_row`]'s twin over the sparse hierarchical candidate lists:
/// top `k` candidate pages × top `min(k, 4)` offsets, probability
/// product, same stable descending order.
pub(crate) fn rank_row_sparse(
    hier: &HierScratch,
    row: usize,
    offset_probs: &Tensor2,
    k: usize,
    offset_vocab: usize,
    scratch: &mut RankScratch,
) -> Vec<(u32, u32, f32)> {
    let (start, end) = hier.rows[row];
    let cand_probs = &hier.probs[start..end];
    let fan = k.clamp(1, 4);
    topk::topk_into(
        cand_probs,
        k.min(cand_probs.len()),
        &mut scratch.heap,
        &mut scratch.pages,
    );
    topk::topk_into(
        offset_probs.row(row),
        fan.min(offset_vocab),
        &mut scratch.heap,
        &mut scratch.offsets,
    );
    let mut pairs: Vec<(u32, u32, f32)> =
        Vec::with_capacity(scratch.pages.len() * scratch.offsets.len());
    for &pi in &scratch.pages {
        for &o in &scratch.offsets {
            pairs.push((
                hier.classes[start + pi],
                o as u32,
                cand_probs[pi] * offset_probs.get(row, o),
            ));
        }
    }
    for i in 1..pairs.len() {
        let mut j = i;
        while j > 0 && pairs[j].2.total_cmp(&pairs[j - 1].2) == Ordering::Greater {
            pairs.swap(j, j - 1);
            j -= 1;
        }
    }
    pairs.truncate(k);
    pairs
}

/// Copies embedding-table rows into `dst` in time-major order (the
/// tape path's `Session::gather` over the same ids is the same row
/// copy).
fn gather_time_major(dst: &mut Tensor2, table: &Tensor2, seqs: &[Vec<usize>]) {
    for (i, id) in SeqBatch::time_major(seqs).enumerate() {
        assert!(
            id < table.rows(),
            "embedding row {id} out of {}",
            table.rows()
        );
        dst.row_mut(i).copy_from_slice(table.row(id));
    }
}

/// Copies every row of `src` into columns `col..col + src.cols()` of
/// `dst` (the tape's `concat_cols`).
fn copy_cols(dst: &mut Tensor2, col: usize, src: &Tensor2) {
    let w = src.cols();
    for i in 0..src.rows() {
        dst.row_mut(i)[col..col + w].copy_from_slice(src.row(i));
    }
}

impl VoyagerModel {
    /// Tape-free degree-`k` inference, bitwise-identical to
    /// [`VoyagerModel::predict`] but without autograd bookkeeping: no
    /// parameter clones, no tape nodes, and (in steady state, with a
    /// stable batch shape) zero heap allocation in the forward hot
    /// loop — all intermediates live in a per-model buffer arena.
    ///
    /// # Panics
    ///
    /// Panics on a ragged or empty batch (like `predict`).
    pub fn predict_fast(&mut self, batch: &SeqBatch, k: usize) -> Vec<Vec<(u32, u32, f32)>> {
        note_fast_path_call();
        self.forward_fast(batch, false);
        self.rank_from_arena(batch.len(), k)
    }

    /// Int8 degree-`k` inference: the four GEMM-heavy weight tensors
    /// (both fused LSTM gate matrices, both heads) run through the
    /// `i8×i8→i32` kernel with per-row activation quantization;
    /// embeddings, attention and nonlinearities stay in f32.
    ///
    /// Quantized weights are prepared on first use and cached; call
    /// [`VoyagerModel::prepare_int8`] to re-quantize after further
    /// training.
    ///
    /// # Panics
    ///
    /// Panics on a ragged or empty batch (like `predict`).
    pub fn predict_int8(&mut self, batch: &SeqBatch, k: usize) -> Vec<Vec<(u32, u32, f32)>> {
        note_fast_path_call();
        if self.infer.int8.is_none() {
            self.prepare_int8();
        }
        self.forward_fast(batch, true);
        self.rank_from_arena(batch.len(), k)
    }

    /// Quantizes the current LSTM and head weights for
    /// [`VoyagerModel::predict_int8`], replacing any cached int8
    /// weights (call again after training to pick up new values).
    pub fn prepare_int8(&mut self) {
        let store = &self.store;
        let h = self.page_lstm.hidden();
        self.infer.int8 = Some(Int8Weights {
            page_lstm: QuantizedLstm::new(
                store.value(self.page_lstm.wx_id()),
                store.value(self.page_lstm.wh_id()),
                store.value(self.page_lstm.bias_id()),
                h,
            ),
            offset_lstm: QuantizedLstm::new(
                store.value(self.offset_lstm.wx_id()),
                store.value(self.offset_lstm.wh_id()),
                store.value(self.offset_lstm.bias_id()),
                h,
            ),
            page_head: match &self.page_head {
                PageHead::Dense(lin) => Int8PageHead::Dense(QuantizedLinear::new(
                    store.value(lin.weight_id()),
                    store.value(lin.bias_id()),
                )),
                PageHead::Hier(hs) => Int8PageHead::Hier(QuantizedHierHead::new(
                    store.value(hs.cluster_head().weight_id()),
                    store.value(hs.cluster_head().bias_id()),
                    store.value(hs.leaves_id()),
                    hs.clusters(),
                    hs.branch(),
                    hs.num_classes(),
                )),
            },
            offset_head: QuantizedLinear::new(
                store.value(self.offset_head.weight_id()),
                store.value(self.offset_head.bias_id()),
            ),
        });
    }

    /// Teacher-side soft labels for distillation: runs the tape-free
    /// f32 forward pass (bitwise-identical to the tape path) and
    /// extracts, per batch row, the top-`k_page` page and top-
    /// `k_offset` offset `(token, probability)` candidates from the
    /// softmaxed output heads.
    ///
    /// # Panics
    ///
    /// Panics on a ragged or empty batch (like `predict`).
    pub fn predict_soft(
        &mut self,
        batch: &SeqBatch,
        k_page: usize,
        k_offset: usize,
    ) -> Vec<SoftLabels> {
        self.forward_fast(batch, false);
        let st = &mut self.infer;
        let slots = st.ensure_slots();
        let offset_probs = st.arena.get(slots.off_logits);
        let mut ex = SoftLabelExtractor::new();
        match &self.page_head {
            PageHead::Dense(_) => {
                let page_probs = st.arena.get(slots.page_logits);
                (0..batch.len())
                    .map(|row| ex.extract(page_probs, offset_probs, row, k_page, k_offset))
                    .collect()
            }
            PageHead::Hier(_) => {
                // Page candidates come from the sparse hierarchical
                // shortlist; the probabilities are the same sub-
                // distribution the fast path ranks.
                let mut heap = Vec::new();
                let mut pairs = Vec::new();
                (0..batch.len())
                    .map(|row| {
                        let (start, end) = st.hier.rows[row];
                        topk::topk_pairs_into(
                            &st.hier.probs[start..end],
                            k_page.min(end - start),
                            &mut heap,
                            &mut pairs,
                        );
                        SoftLabels {
                            pages: pairs
                                .iter()
                                .map(|&(i, p)| (st.hier.classes[start + i], p))
                                .collect(),
                            offsets: ex.head_topk(offset_probs, row, k_offset),
                        }
                    })
                    .collect()
            }
        }
    }

    /// `(grow_events, grown_bytes)` of this model's inference arena.
    /// Flat across steady-state `predict_fast` / `predict_int8` calls;
    /// moves only on the first call or when the batch shape grows.
    pub fn fast_path_arena_stats(&self) -> (u64, u64) {
        (
            self.infer.arena.grow_events(),
            self.infer.arena.grown_bytes(),
        )
    }

    /// Runs the tape-free forward pass, leaving row-softmaxed page and
    /// offset probabilities in the `page_logits` / `off_logits` arena
    /// slots.
    fn forward_fast(&mut self, batch: &SeqBatch, int8: bool) {
        batch.validate();
        let slots = self.infer.ensure_slots();
        let b = batch.len();
        let steps = batch.seq_len();
        let rows = steps * b;
        let cfg = &self.cfg;
        let hidden = self.page_lstm.hidden();
        let store = &self.store;
        let st = &mut self.infer;

        let input_dim = self.page_lstm.input_dim();
        let d = cfg.page_embed;
        let experts = self.attn.n_experts();

        // Embedding lookups + concat into the time-major LSTM input `x`,
        // mirroring the tape path's gather / attention / concat_cols
        // chain (all copies and the same arithmetic).
        let mut x = st.arena.acquire(slots.x, rows, input_dim);
        let mut col = 0;
        if cfg.features.pc {
            let mut pc_e = st.arena.acquire(slots.pc_e, rows, cfg.pc_embed);
            gather_time_major(&mut pc_e, store.value(self.pc_emb.table_id()), &batch.pc);
            copy_cols(&mut x, col, &pc_e);
            col += cfg.pc_embed;
            st.arena.put(slots.pc_e, pc_e);
        }
        if cfg.features.address {
            let mut page_e = st.arena.acquire(slots.page_e, rows, d);
            gather_time_major(
                &mut page_e,
                store.value(self.page_emb.table_id()),
                &batch.page,
            );
            let off_width = self.offset_emb.dim();
            let mut off_e = st.arena.acquire(slots.off_e, rows, off_width);
            gather_time_major(
                &mut off_e,
                store.value(self.offset_emb.table_id()),
                &batch.offset,
            );
            copy_cols(&mut x, col, &page_e);
            if cfg.page_aware_attention {
                // Page-aware offset embedding (Section 4.2.2):
                // chunk_dot -> scale -> softmax -> weighted sum.
                let mut scores = st.arena.acquire(slots.scores, rows, experts);
                for i in 0..rows {
                    let qrow = page_e.row(i);
                    let crow = off_e.row(i);
                    for s in 0..experts {
                        let chunk = &crow[s * d..(s + 1) * d];
                        scores.set(i, s, qrow.iter().zip(chunk).map(|(&qv, &cv)| qv * cv).sum());
                    }
                }
                let f = self.attn.scale();
                scores.map_inplace(|v| v * f);
                softmax_rows_inplace(&mut scores);
                let mut mixed = st.arena.acquire(slots.mixed, rows, d);
                for i in 0..rows {
                    let wrow = scores.row(i);
                    let crow = off_e.row(i);
                    let out = mixed.row_mut(i);
                    for s in 0..experts {
                        let ws = wrow[s];
                        for (o, &c) in out.iter_mut().zip(&crow[s * d..(s + 1) * d]) {
                            *o += ws * c;
                        }
                    }
                }
                copy_cols(&mut x, col + d, &mixed);
                st.arena.put(slots.scores, scores);
                st.arena.put(slots.mixed, mixed);
            } else {
                copy_cols(&mut x, col + d, &off_e);
            }
            st.arena.put(slots.page_e, page_e);
            st.arena.put(slots.off_e, off_e);
        }

        // Both LSTMs run over the same input and leave their final
        // hidden states in `page_h` / `off_h`.
        let mut page_h = st.arena.acquire(slots.page_h, b, hidden);
        let mut off_h = st.arena.acquire(slots.off_h, b, hidden);
        if int8 {
            if let Some(qw) = &st.int8 {
                let mut page_c = st.arena.acquire(slots.page_c, b, hidden);
                let mut off_c = st.arena.acquire(slots.off_c, b, hidden);
                // Quantized GEMMs — every step's input projection at
                // once, then the recurrent product step by step — and
                // the shared f32 cell update.
                quantize_rows_into(&x, &mut st.qx);
                let mut pre = st.arena.acquire(slots.gates, rows, 4 * hidden);
                let mut gates = st.arena.acquire(slots.step_gates, b, 4 * hidden);
                let step_len = b * 4 * hidden;
                for (lstm, h, c) in [
                    (&qw.page_lstm, &mut page_h, &mut page_c),
                    (&qw.offset_lstm, &mut off_h, &mut off_c),
                ] {
                    lstm.input_into(&st.qx, &mut pre);
                    for t in 0..steps {
                        gates
                            .as_mut_slice()
                            .copy_from_slice(&pre.as_slice()[t * step_len..(t + 1) * step_len]);
                        quantize_rows_into(h, &mut st.qh);
                        lstm.step_into(&st.qh, &mut gates);
                        lstm_cell(
                            gates.as_mut_slice(),
                            c.as_mut_slice(),
                            h.as_mut_slice(),
                            hidden,
                        );
                    }
                }
                st.arena.put(slots.gates, pre);
                st.arena.put(slots.step_gates, gates);
                st.arena.put(slots.page_c, page_c);
                st.arena.put(slots.off_c, off_c);
            }
        } else {
            let mut gates = st.arena.acquire(slots.gates, rows, 4 * hidden);
            let mut cells = st.arena.acquire(slots.cells, rows, hidden);
            let mut hs = st.arena.acquire(slots.hs, rows, hidden);
            for (lstm, h) in [
                (&self.page_lstm, &mut page_h),
                (&self.offset_lstm, &mut off_h),
            ] {
                lstm_seq_forward(
                    &x,
                    store.value(lstm.wx_id()),
                    store.value(lstm.wh_id()),
                    store.value(lstm.bias_id()).as_slice(),
                    steps,
                    &mut gates,
                    &mut cells,
                    &mut hs,
                );
                h.as_mut_slice()
                    .copy_from_slice(&hs.as_slice()[(rows - b) * hidden..]);
            }
            st.arena.put(slots.gates, gates);
            st.arena.put(slots.cells, cells);
            st.arena.put(slots.hs, hs);
        }
        st.arena.put(slots.x, x);

        // Offset head + row softmax (identical for both page heads).
        let mut off_logits = st.arena.acquire(slots.off_logits, b, self.offset_vocab);
        if int8 {
            if let Some(qw) = &st.int8 {
                quantize_rows_into(&off_h, &mut st.qh);
                qw.offset_head.forward_into(&st.qh, &mut off_logits);
            }
        } else {
            gemm(
                &off_h,
                store.value(self.offset_head.weight_id()),
                Layout::NN,
                &mut off_logits,
            );
            add_row_inplace(
                &mut off_logits,
                store.value(self.offset_head.bias_id()).as_slice(),
            );
        }
        softmax_rows_inplace(&mut off_logits);

        // Page head: dense leaves softmaxed `[batch, vocab]`
        // probabilities in the `page_logits` arena slot; hierarchical
        // leaves sparse candidate lists in `st.hier` instead (nothing
        // `O(vocab)` is ever materialized).
        match &self.page_head {
            PageHead::Dense(lin) => {
                let mut page_logits =
                    st.arena
                        .acquire(slots.page_logits, b, self.page_vocab.max(1));
                if int8 {
                    if let Some(qw) = &st.int8 {
                        let Int8PageHead::Dense(qhead) = &qw.page_head else {
                            unreachable!("int8 weights quantized from a different head");
                        };
                        quantize_rows_into(&page_h, &mut st.qh);
                        qhead.forward_into(&st.qh, &mut page_logits);
                    }
                } else {
                    gemm(
                        &page_h,
                        store.value(lin.weight_id()),
                        Layout::NN,
                        &mut page_logits,
                    );
                    add_row_inplace(&mut page_logits, store.value(lin.bias_id()).as_slice());
                }
                softmax_rows_inplace(&mut page_logits);
                st.arena.put(slots.page_logits, page_logits);
            }
            PageHead::Hier(hs) => {
                if int8 {
                    if let Some(qw) = &st.int8 {
                        let Int8PageHead::Hier(qhead) = &qw.page_head else {
                            unreachable!("int8 weights quantized from a different head");
                        };
                        quantize_rows_into(&page_h, &mut st.qh);
                        hier_candidates_int8(qhead, &st.qh, cfg.hier_fan, &mut st.hier);
                    }
                } else {
                    hier_candidates(store, hs, &page_h, cfg.hier_fan, &mut st.hier);
                }
            }
        }

        st.arena.put(slots.page_h, page_h);
        st.arena.put(slots.off_h, off_h);
        st.arena.put(slots.off_logits, off_logits);
    }

    /// Builds the ranked candidate lists from the probabilities left in
    /// the arena by [`VoyagerModel::forward_fast`].
    fn rank_from_arena(&mut self, batch_len: usize, k: usize) -> Vec<Vec<(u32, u32, f32)>> {
        let st = &mut self.infer;
        let slots = st.ensure_slots();
        let off_probs = st.arena.get(slots.off_logits);
        let mut out = Vec::with_capacity(batch_len);
        match &self.page_head {
            PageHead::Dense(_) => {
                let page_probs = st.arena.get(slots.page_logits);
                for row in 0..batch_len {
                    out.push(rank_row(
                        page_probs,
                        off_probs,
                        row,
                        k,
                        self.page_vocab,
                        self.offset_vocab,
                        &mut st.rank,
                    ));
                }
            }
            PageHead::Hier(_) => {
                for row in 0..batch_len {
                    out.push(rank_row_sparse(
                        &st.hier,
                        row,
                        off_probs,
                        k,
                        self.offset_vocab,
                        &mut st.rank,
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{FeatureSet, SeqBatch, VoyagerConfig, VoyagerModel};

    fn batch(b: usize, l: usize) -> SeqBatch {
        SeqBatch {
            pc: (0..b).map(|i| vec![i % 5; l]).collect(),
            page: (0..b).map(|i| vec![i % 3; l]).collect(),
            offset: (0..b).map(|i| vec![(i * 7) % 64; l]).collect(),
        }
    }

    fn train_some(m: &mut VoyagerModel, b: usize, steps: usize) {
        let bat = batch(b, m.config().seq_len);
        let (pv, ov) = (m.page_vocab.max(1), m.offset_vocab);
        let (pt, ot): (Vec<_>, Vec<_>) = (0..b)
            .map(|i| (vec![(i * 5) % pv], vec![(i * 11) % ov]))
            .unzip();
        for _ in 0..steps {
            m.train_multi(&bat, &pt, &ot);
        }
    }

    #[test]
    fn predict_fast_is_bitwise_identical_to_predict() {
        // The guarantee the engine is built on: for every architecture
        // variant, every batch size, and every k, the tape-free f32
        // path reproduces the tape path bit for bit (assert_eq on f32
        // scores is exact equality).
        let variants = [
            VoyagerConfig::test(),
            VoyagerConfig::test().without_attention(),
            VoyagerConfig::test().with_features(FeatureSet {
                pc: false,
                address: true,
            }),
        ];
        for (vi, cfg) in variants.iter().enumerate() {
            let mut m = VoyagerModel::new(cfg, 16, 32, 64);
            train_some(&mut m, 6, 5);
            for bsize in [1, 3, 8] {
                let bat = batch(bsize, cfg.seq_len);
                for k in [1, 4] {
                    let tape = m.predict(&bat, k);
                    let fast = m.predict_fast(&bat, k);
                    assert_eq!(tape, fast, "variant {vi}, batch {bsize}, k {k}");
                }
            }
        }
    }

    #[test]
    fn predict_fast_repeated_calls_are_stable() {
        let cfg = VoyagerConfig::test();
        let mut m = VoyagerModel::new(&cfg, 16, 32, 64);
        train_some(&mut m, 4, 3);
        let bat = batch(4, cfg.seq_len);
        let first = m.predict_fast(&bat, 2);
        for _ in 0..5 {
            assert_eq!(m.predict_fast(&bat, 2), first);
        }
    }

    #[test]
    fn arena_grows_only_on_first_call_and_batch_increase() {
        let cfg = VoyagerConfig::test();
        let mut m = VoyagerModel::new(&cfg, 16, 32, 64);
        assert_eq!(m.fast_path_arena_stats(), (0, 0));
        let b1 = batch(1, cfg.seq_len);
        let b4 = batch(4, cfg.seq_len);
        m.predict_fast(&b1, 2);
        let (g1, bytes1) = m.fast_path_arena_stats();
        assert!(g1 > 0 && bytes1 > 0);
        for _ in 0..10 {
            m.predict_fast(&b1, 2);
        }
        assert_eq!(m.fast_path_arena_stats(), (g1, bytes1), "steady state grew");
        m.predict_fast(&b4, 2);
        let (g4, bytes4) = m.fast_path_arena_stats();
        assert!(g4 > g1, "larger batch must regrow buffers");
        for _ in 0..10 {
            m.predict_fast(&b4, 2);
        }
        assert_eq!(m.fast_path_arena_stats(), (g4, bytes4));
        // Shrinking back reuses the larger allocations.
        m.predict_fast(&b1, 2);
        assert_eq!(m.fast_path_arena_stats(), (g4, bytes4));
    }

    #[test]
    fn predict_soft_agrees_with_fast_path_argmax() {
        // With k = 1 the fast path's single candidate is the pair of
        // per-head argmaxes, which is exactly what the soft labels'
        // leading entries must be; and soft probabilities are a valid
        // ranked sub-distribution.
        let cfg = VoyagerConfig::test();
        let mut m = VoyagerModel::new(&cfg, 16, 32, 64);
        train_some(&mut m, 6, 5);
        let bat = batch(5, cfg.seq_len);
        let hard = m.predict_fast(&bat, 1);
        let soft = m.predict_soft(&bat, 4, 4);
        assert_eq!(soft.len(), 5);
        for (row, labels) in soft.iter().enumerate() {
            assert_eq!(labels.pages.len(), 4);
            assert_eq!(labels.offsets.len(), 4);
            assert_eq!(labels.pages[0].0, hard[row][0].0);
            assert_eq!(labels.offsets[0].0, hard[row][0].1);
            for w in labels.pages.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
            let mass: f32 = labels.pages.iter().map(|&(_, p)| p).sum();
            assert!(mass > 0.0 && mass <= 1.0 + 1e-5);
        }
    }

    #[test]
    fn int8_top1_agreement_on_trained_model() {
        // Section 5.4's claim: 8-bit weights cost < 1% accuracy. Train
        // a small mapping to convergence, then require >= 99% top-1
        // (page, offset) agreement between the f32 and int8 fast paths
        // over 128 rows.
        let cfg = VoyagerConfig::test();
        let mut m = VoyagerModel::new(&cfg, 16, 8, 64);
        let patterns = SeqBatch {
            pc: vec![vec![1; 4], vec![2; 4], vec![3; 4], vec![4; 4]],
            page: vec![vec![3; 4], vec![5; 4], vec![7; 4], vec![1; 4]],
            offset: vec![vec![10; 4], vec![20; 4], vec![30; 4], vec![40; 4]],
        };
        let pages: [usize; 4] = [6, 7, 2, 4];
        let offsets: [usize; 4] = [30, 40, 50, 60];
        for _ in 0..150 {
            m.train_single(&patterns, &pages, &offsets);
        }
        // Convergence check: the f32 path predicts the trained labels.
        let check = m.predict_fast(&patterns, 1);
        for (i, row) in check.iter().enumerate() {
            assert_eq!(
                (row[0].0 as usize, row[0].1 as usize),
                (pages[i], offsets[i])
            );
        }
        // 128-row evaluation batch cycling the trained patterns.
        let rows = 128;
        let eval = SeqBatch {
            pc: (0..rows).map(|i| patterns.pc[i % 4].clone()).collect(),
            page: (0..rows).map(|i| patterns.page[i % 4].clone()).collect(),
            offset: (0..rows).map(|i| patterns.offset[i % 4].clone()).collect(),
        };
        m.prepare_int8();
        let f32_top = m.predict_fast(&eval, 1);
        let int8_top = m.predict_int8(&eval, 1);
        let agree = f32_top
            .iter()
            .zip(&int8_top)
            .filter(|(a, b)| (a[0].0, a[0].1) == (b[0].0, b[0].1))
            .count();
        let ratio = agree as f64 / rows as f64;
        assert!(ratio >= 0.99, "int8 top-1 agreement {ratio} below 99%");
    }

    #[test]
    fn int8_probabilities_stay_close_to_f32() {
        let cfg = VoyagerConfig::test();
        let mut m = VoyagerModel::new(&cfg, 16, 32, 64);
        train_some(&mut m, 6, 10);
        let bat = batch(6, cfg.seq_len);
        let f = m.predict_fast(&bat, 4);
        let q = m.predict_int8(&bat, 4);
        for (fr, qr) in f.iter().zip(&q) {
            for (fc, qc) in fr.iter().zip(qr) {
                assert!((fc.2 - qc.2).abs() < 0.05, "{fc:?} vs {qc:?}");
            }
        }
    }

    #[test]
    fn prepare_int8_refreshes_after_training() {
        // Quantized weights are a cache of the f32 weights at
        // prepare time; re-preparing after further training must pick
        // up the new mapping.
        let cfg = VoyagerConfig::test();
        let mut m = VoyagerModel::new(&cfg, 16, 8, 64);
        let patterns = SeqBatch {
            pc: vec![vec![1; 4], vec![2; 4]],
            page: vec![vec![3; 4], vec![5; 4]],
            offset: vec![vec![10; 4], vec![20; 4]],
        };
        for _ in 0..120 {
            m.train_single(&patterns, &[6, 7], &[30, 40]);
        }
        let a = m.predict_int8(&patterns, 1); // prepares on first use
        assert_eq!((a[0][0].0, a[0][0].1), (6, 30));
        assert_eq!((a[1][0].0, a[1][0].1), (7, 40));
        // Retrain to a different mapping, re-prepare, and the int8
        // path must follow the new weights.
        for _ in 0..200 {
            m.train_single(&patterns, &[2, 4], &[50, 60]);
        }
        m.prepare_int8();
        let b = m.predict_int8(&patterns, 1);
        assert_eq!((b[0][0].0, b[0][0].1), (2, 50));
        assert_eq!((b[1][0].0, b[1][0].1), (4, 60));
    }
}
