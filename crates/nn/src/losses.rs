//! Composite loss helpers built from graph primitives.

use crate::exp::exp_in_place;
use crate::graph::{Graph, Var};
use crate::tensor::Tensor;

/// Knowledge-distillation loss (Hinton-style), used by FedLwF.
///
/// `KL(softmax(teacher/T) || softmax(student/T)) * T^2`, reduced to the
/// cross-entropy part (the teacher-entropy term is constant w.r.t. the
/// student): `-T^2 * mean_i sum_k p_ik * log q_ik`.
///
/// `teacher_logits` is a constant (the frozen old model's output).
///
/// # Panics
///
/// Panics if shapes differ or are not 2-D.
pub fn distillation_loss(
    g: &Graph,
    student_logits: Var,
    teacher_logits: &Tensor,
    temperature: f32,
) -> Var {
    let sshape = g.shape(student_logits);
    assert_eq!(sshape.len(), 2, "distillation expects 2-D logits");
    assert_eq!(
        sshape.as_slice(),
        teacher_logits.shape(),
        "teacher/student shape mismatch"
    );
    let b = sshape[0] as f32;

    // Teacher soft targets computed eagerly (no grad).
    let k = teacher_logits.shape()[1];
    let mut probs = Vec::with_capacity(teacher_logits.numel());
    for trow in teacher_logits.data().chunks(k) {
        let m = trow.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        probs.extend(trow.iter().map(|&t| (t - m) / temperature));
    }
    exp_in_place(&mut probs);
    for prow in probs.chunks_mut(k) {
        let mut sum = 0.0;
        for &p in prow.iter() {
            sum += p;
        }
        for p in prow.iter_mut() {
            *p /= sum;
        }
    }
    let teacher = g.constant(Tensor::from_vec(probs, teacher_logits.shape()));

    let scaled = g.scale(student_logits, 1.0 / temperature);
    let logq = g.log_softmax_last(scaled);
    let weighted = g.mul(teacher, logq);
    let total = g.sum_all(weighted);
    g.scale(total, -(temperature * temperature) / b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;

    #[test]
    fn distillation_zero_when_matching_teacher() {
        // When student == teacher, the KD gradient w.r.t. the student is zero.
        let mut params = Params::new();
        let x = params.insert(
            "x",
            Tensor::from_vec(vec![1.0, -1.0, 0.5, 0.2], &[2, 2]),
            true,
        );
        let g = Graph::new();
        let sv = g.param(&params, x);
        let teacher = params.value(x).clone();
        let loss = distillation_loss(&g, sv, &teacher, 2.0);
        g.backward(loss, &mut params);
        for &gr in params.grad(x).data() {
            assert!(gr.abs() < 1e-5, "grad {gr}");
        }
    }

    #[test]
    fn distillation_pulls_student_toward_teacher() {
        let mut params = Params::new();
        let x = params.insert("x", Tensor::from_vec(vec![0.0, 0.0], &[1, 2]), true);
        let teacher = Tensor::from_vec(vec![5.0, -5.0], &[1, 2]);
        let mut opt = crate::optim::Sgd::new(0.5);
        for _ in 0..200 {
            params.zero_grad();
            let g = Graph::new();
            let sv = g.param(&params, x);
            let loss = distillation_loss(&g, sv, &teacher, 2.0);
            g.backward(loss, &mut params);
            opt.step(&mut params);
        }
        let v = params.value(x);
        assert!(
            v.data()[0] > v.data()[1],
            "student did not follow teacher: {v:?}"
        );
    }
}
