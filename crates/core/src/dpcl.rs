//! Domain-specific Prompt Contrastive Learning loss (paper Eq. 6).
//!
//! For each generated prompt `u_i` (label `k`), the positives are the
//! closest global prompts of class `k` — one for single-domain clients
//! (`U_o`, `U_n`), two for in-between clients (`U_b`) — and every other
//! global prompt is a negative. The InfoNCE objective with the decayed
//! temperature `tau'` (Eq. 7) pushes locally generated prompts toward their
//! class/domain neighbourhood while keeping distinct domain boundaries.

use refil_clustering::cosine_similarity;
use refil_nn::{Graph, Tensor, Transpose, Var};

/// Builds the DPCL loss for a batch.
///
/// * `u` — generated prompts, `[b, p*d]` (gradients flow through it);
/// * `candidates` — global prompt representatives (constants);
/// * `cand_classes` — class of each candidate;
/// * `labels` — batch labels;
/// * `n_pos` — positives per sample (1 for `U_o`/`U_n`, 2 for `U_b`);
/// * `tau` — decayed temperature `tau'`.
///
/// Rows whose class has no candidate contribute zero loss (all candidates
/// are treated as positives for them, making the log-ratio exactly 0).
/// Returns `None` when there are no candidates at all.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn dpcl_loss(
    g: &Graph,
    u: Var,
    candidates: &[Vec<f32>],
    cand_classes: &[usize],
    labels: &[usize],
    n_pos: usize,
    tau: f32,
) -> Option<Var> {
    if candidates.is_empty() {
        return None;
    }
    assert_eq!(
        candidates.len(),
        cand_classes.len(),
        "candidate class list mismatch"
    );
    let ushape = g.shape(u);
    assert_eq!(ushape.len(), 2, "u must be [b, p*d]");
    let (b, d) = (ushape[0], ushape[1]);
    assert_eq!(labels.len(), b, "labels length mismatch");
    let m = candidates.len();

    // Row-normalized constant candidate matrix.
    let mut cdata = Vec::with_capacity(m * d);
    for c in candidates {
        assert_eq!(c.len(), d, "candidate dim mismatch");
        let norm = c.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-8);
        cdata.extend(c.iter().map(|x| x / norm));
    }
    let cand = g.constant(Tensor::from_vec(cdata, &[m, d]));

    // Similarity logits: normalize(u) @ normalize(C)^T / tau; Transpose::Rhs
    // reads the candidate rows transposed in place, no [d, m] copy.
    let un = g.row_l2_normalize(u);
    let sims = g.matmul(un, cand, Transpose::Rhs);
    let logits = g.scale(sims, 1.0 / tau.max(1e-4));

    // Positive sets from *detached* prompt values (selection is not part of
    // the gradient, matching the paper's sampling strategy).
    let uvals = g.value(un);
    let positives: Vec<Vec<usize>> = labels
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let urow = &uvals.data()[i * d..(i + 1) * d];
            let mut same: Vec<(usize, f32)> = cand_classes
                .iter()
                .enumerate()
                .filter(|(_, &c)| c == k)
                .map(|(j, _)| (j, cosine_similarity(urow, &candidates[j])))
                .collect();
            if same.is_empty() {
                // No candidate of this class yet: neutral row (zero loss).
                return (0..m).collect();
            }
            same.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            same.truncate(n_pos.max(1));
            same.into_iter().map(|(j, _)| j).collect()
        })
        .collect();

    Some(g.multi_positive_nce(logits, &positives))
}

#[cfg(test)]
mod tests {
    use super::*;
    use refil_nn::{Params, Sgd};

    fn candidates() -> (Vec<Vec<f32>>, Vec<usize>) {
        (
            vec![
                vec![1.0, 0.0, 0.0, 0.0], // class 0, domain A
                vec![0.0, 1.0, 0.0, 0.0], // class 0, domain B
                vec![0.0, 0.0, 1.0, 0.0], // class 1
            ],
            vec![0, 0, 1],
        )
    }

    #[test]
    fn no_candidates_gives_none() {
        let g = Graph::new();
        let u = g.constant(Tensor::zeros(&[1, 4]));
        assert!(dpcl_loss(&g, u, &[], &[], &[0], 1, 0.9).is_none());
    }

    #[test]
    fn aligned_prompt_has_lower_loss_than_misaligned() {
        let (cands, classes) = candidates();
        let g = Graph::new();
        let aligned = g.constant(Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], &[1, 4]));
        let misaligned = g.constant(Tensor::from_vec(vec![0.0, 0.0, 1.0, 0.0], &[1, 4]));
        let la = g.value(dpcl_loss(&g, aligned, &cands, &classes, &[0], 1, 0.5).unwrap());
        let lm = g.value(dpcl_loss(&g, misaligned, &cands, &classes, &[0], 1, 0.5).unwrap());
        assert!(
            la.data()[0] < lm.data()[0],
            "{} !< {}",
            la.data()[0],
            lm.data()[0]
        );
    }

    #[test]
    fn missing_class_rows_are_neutral() {
        let (cands, classes) = candidates();
        let g = Graph::new();
        // Label 7 has no candidates: loss must be exactly zero.
        let u = g.constant(Tensor::from_vec(vec![0.5, 0.5, 0.0, 0.0], &[1, 4]));
        let l = g.value(dpcl_loss(&g, u, &cands, &classes, &[7], 1, 0.5).unwrap());
        assert!(
            l.data()[0].abs() < 1e-6,
            "neutral row not zero: {}",
            l.data()[0]
        );
    }

    #[test]
    fn two_positives_for_between_clients() {
        let (cands, classes) = candidates();
        let g = Graph::new();
        // With n_pos = 2 both class-0 candidates are positives, so only the
        // class-1 candidate is a negative — the loss must be smaller than the
        // 1-positive case for a prompt equally near both class-0 candidates.
        let u = Tensor::from_vec(vec![0.7, 0.7, 0.0, 0.0], &[1, 4]);
        let l1 =
            g.value(dpcl_loss(&g, g.constant(u.clone()), &cands, &classes, &[0], 1, 0.5).unwrap());
        let l2 = g.value(dpcl_loss(&g, g.constant(u), &cands, &classes, &[0], 2, 0.5).unwrap());
        assert!(l2.data()[0] < l1.data()[0]);
    }

    #[test]
    fn gradient_pulls_prompt_toward_positive() {
        let (cands, classes) = candidates();
        let mut params = Params::new();
        let u0 = Tensor::from_vec(vec![0.4, 0.1, 0.6, 0.0], &[1, 4]);
        let uid = params.insert("u", u0, true);
        let mut opt = Sgd::new(0.5);
        for _ in 0..60 {
            params.zero_grad();
            let g = Graph::new();
            let u = g.param(&params, uid);
            let loss = dpcl_loss(&g, u, &cands, &classes, &[0], 1, 0.5).unwrap();
            g.backward(loss, &mut params);
            opt.step(&mut params);
        }
        let u = params.value(uid);
        let sim_pos = cosine_similarity(u.data(), &cands[0]);
        let sim_neg = cosine_similarity(u.data(), &cands[2]);
        assert!(
            sim_pos > sim_neg + 0.3,
            "DPCL failed to separate: pos {sim_pos}, neg {sim_neg}"
        );
    }

    #[test]
    fn lower_temperature_sharpens_loss_spread() {
        let (cands, classes) = candidates();
        let g = Graph::new();
        let u = Tensor::from_vec(vec![0.9, 0.1, 0.3, 0.0], &[1, 4]);
        let hot =
            g.value(dpcl_loss(&g, g.constant(u.clone()), &cands, &classes, &[0], 1, 0.9).unwrap());
        let cold = g.value(dpcl_loss(&g, g.constant(u), &cands, &classes, &[0], 1, 0.3).unwrap());
        // Sharper temperature should reduce the loss for a well-aligned
        // prompt (the positive dominates the partition function more).
        assert!(cold.data()[0] < hot.data()[0]);
    }
}
