//! The shared prompt-aware backbone of Appendix A.
//!
//! Pipeline (paper Eq. 12–14): feature extractor `h` -> frozen patch
//! tokenizer + `[CLS]` -> optional prompt tokens prepended -> attention
//! block(s) -> classifier `G` on the output `[CLS]` token.
//!
//! Every method in the evaluation (Finetune, FedLwF, FedEWC, FedL2P,
//! FedDualPrompt, RefFiL) instantiates this same backbone; they differ only
//! in which prompts they inject and which losses they optimize.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::graph::{Graph, Var};
use crate::infer::InferenceSession;
use crate::layers::{
    Classifier, ConvExtractor, PatchTokenizer, ResidualExtractor, TransformerBlock,
};
use crate::params::Params;
use crate::tensor::Tensor;

/// Which feature-extractor architecture `h(x)` the backbone uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExtractorKind {
    /// Residual MLP blocks (the default substrate stand-in for ResNet10).
    ResidualMlp,
    /// A 1-D CNN — the architectural analogue of the paper's CNN backbone
    /// for vector inputs.
    Conv,
}

/// Backbone hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BackboneConfig {
    /// Input feature dimensionality.
    pub in_dim: usize,
    /// Residual extractor hidden width.
    pub extractor_width: usize,
    /// Residual extractor depth (number of residual blocks).
    pub extractor_depth: usize,
    /// Number of patch tokens `n`.
    pub n_patches: usize,
    /// Token width `d`.
    pub token_dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Number of attention blocks `B`.
    pub blocks: usize,
    /// Output classes `K`.
    pub classes: usize,
    /// Feature-extractor architecture.
    pub extractor: ExtractorKind,
}

impl Default for BackboneConfig {
    fn default() -> Self {
        Self {
            in_dim: 32,
            extractor_width: 64,
            extractor_depth: 2,
            n_patches: 4,
            token_dim: 32,
            heads: 4,
            blocks: 1,
            classes: 10,
            extractor: ExtractorKind::ResidualMlp,
        }
    }
}

/// Intermediate and final activations of one forward pass.
#[derive(Debug, Clone, Copy)]
pub struct BackboneOutput {
    /// Raw extractor features `h(x)`, `[batch, n*d]`.
    pub features: Var,
    /// Input tokens `I = [CLS; PT_1..PT_n]` before prompts, `[batch, n+1, d]`.
    pub tokens: Var,
    /// Final `[CLS]` representation, `[batch, d]`.
    pub cls: Var,
    /// Class logits, `[batch, classes]`.
    pub logits: Var,
}

/// Either extractor, behind one forward interface.
#[derive(Debug, Clone)]
enum Extractor {
    Residual(ResidualExtractor),
    Conv(ConvExtractor),
}

impl Extractor {
    fn forward(&self, g: &Graph, params: &Params, x: Var) -> Var {
        match self {
            Self::Residual(e) => e.forward(g, params, x),
            Self::Conv(e) => e.forward(g, params, x),
        }
    }
}

/// The full backbone.
#[derive(Debug, Clone)]
pub struct PromptedBackbone {
    extractor: Extractor,
    tokenizer: PatchTokenizer,
    blocks: Vec<TransformerBlock>,
    classifier: Classifier,
    cfg: BackboneConfig,
}

impl PromptedBackbone {
    /// Registers the backbone's parameters under `name` in `params`.
    pub fn new<R: Rng>(params: &mut Params, name: &str, cfg: BackboneConfig, rng: &mut R) -> Self {
        let extractor = match cfg.extractor {
            ExtractorKind::ResidualMlp => Extractor::Residual(ResidualExtractor::new(
                params,
                &format!("{name}.extractor"),
                cfg.in_dim,
                cfg.extractor_width,
                cfg.extractor_depth,
                cfg.n_patches * cfg.token_dim,
                rng,
            )),
            ExtractorKind::Conv => Extractor::Conv(ConvExtractor::new(
                params,
                &format!("{name}.extractor"),
                cfg.in_dim,
                (cfg.extractor_width / 8).max(2),
                cfg.n_patches * cfg.token_dim,
                rng,
            )),
        };
        let tokenizer = PatchTokenizer::new(
            params,
            &format!("{name}.tokenizer"),
            cfg.n_patches,
            cfg.token_dim,
            rng,
        );
        let blocks = (0..cfg.blocks)
            .map(|i| {
                TransformerBlock::new(
                    params,
                    &format!("{name}.block{i}"),
                    cfg.token_dim,
                    cfg.heads,
                    rng,
                )
            })
            .collect();
        let classifier = Classifier::new(
            params,
            &format!("{name}.classifier"),
            cfg.token_dim,
            cfg.classes,
            rng,
        );
        Self {
            extractor,
            tokenizer,
            blocks,
            classifier,
            cfg,
        }
    }

    /// The backbone configuration.
    pub fn config(&self) -> &BackboneConfig {
        &self.cfg
    }

    /// Tokenizes a raw input batch: `x [b, in_dim] -> I [b, n+1, d]`.
    ///
    /// Exposed separately so RefFiL's CDAP generator can consume `I`.
    pub fn tokenize(&self, g: &Graph, params: &Params, x: &Tensor) -> (Var, Var) {
        let xv = g.input(x);
        let features = self.extractor.forward(g, params, xv);
        let tokens = self.tokenizer.forward(g, params, features);
        (features, tokens)
    }

    /// Full forward pass with optional prompt tokens.
    ///
    /// `prompts`, when given, must be `[b, p, d]`; the prompt tokens are
    /// inserted between `[CLS]` and the patch tokens (prefix-style), so the
    /// classifier input is `G([P, h(x)])` as in the paper's Eq. 9–10.
    pub fn forward(
        &self,
        g: &Graph,
        params: &Params,
        x: &Tensor,
        prompts: Option<Var>,
    ) -> BackboneOutput {
        let (features, tokens) = self.tokenize(g, params, x);
        self.forward_from_tokens(g, params, features, tokens, prompts)
    }

    /// Forward pass reusing pre-computed tokens (so the tokenization cost is
    /// shared between the local-prompt and global-prompt branches of RefFiL).
    pub fn forward_from_tokens(
        &self,
        g: &Graph,
        params: &Params,
        features: Var,
        tokens: Var,
        prompts: Option<Var>,
    ) -> BackboneOutput {
        let d = self.cfg.token_dim;
        let seq = match prompts {
            Some(p) => {
                let pshape = g.shape(p);
                assert_eq!(pshape.len(), 3, "prompts must be [b, p, d], got {pshape:?}");
                assert_eq!(pshape[2], d, "prompt width must equal token width");
                let cls = g.slice(tokens, 1, 0, 1);
                let rest = g.slice(tokens, 1, 1, self.cfg.n_patches);
                g.concat(&[cls, p, rest], 1)
            }
            None => tokens,
        };
        let mut h = seq;
        for blk in &self.blocks {
            h = blk.forward(g, params, h);
        }
        let cls3 = g.slice(h, 1, 0, 1); // [b, 1, d]
        let b = g.shape(cls3)[0];
        let cls = g.reshape(cls3, &[b, d]);
        let logits = self.classifier.forward(g, params, cls);
        BackboneOutput {
            features,
            tokens,
            cls,
            logits,
        }
    }

    /// Broadcasts a shared `[p, d]` prompt tensor across a batch of size `b`,
    /// yielding a `[b, p, d]` variable.
    pub fn broadcast_prompts(&self, g: &Graph, prompts: Var, b: usize) -> Var {
        let shape = g.shape(prompts);
        assert_eq!(shape.len(), 2, "shared prompts must be [p, d]");
        let one = g.reshape(prompts, &[1, shape[0], shape[1]]);
        if b == 1 {
            one
        } else {
            let copies: Vec<Var> = (0..b).map(|_| one).collect();
            g.concat(&copies, 0)
        }
    }

    /// Predicted labels for a batch (no prompts), used by simple baselines.
    ///
    /// Convenience wrapper that spins up a one-shot [`InferenceSession`];
    /// hot loops should hold a session and call
    /// [`PromptedBackbone::predict_in`] instead so forward buffers are
    /// recycled across batches.
    pub fn predict(&self, params: &Params, x: &Tensor) -> Vec<usize> {
        self.predict_in(&mut InferenceSession::new(), params, x)
    }

    /// Predicted labels for a batch (no prompts) through a reusable
    /// [`InferenceSession`].
    pub fn predict_in(
        &self,
        session: &mut InferenceSession,
        params: &Params,
        x: &Tensor,
    ) -> Vec<usize> {
        session.forward(|g| {
            let out = self.forward(g, params, x, None);
            g.argmax_last(out.logits)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_cfg() -> BackboneConfig {
        BackboneConfig {
            in_dim: 8,
            extractor_width: 16,
            extractor_depth: 1,
            n_patches: 2,
            token_dim: 8,
            heads: 2,
            blocks: 1,
            classes: 3,
            extractor: ExtractorKind::ResidualMlp,
        }
    }

    #[test]
    fn forward_shapes_without_prompts() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let model = PromptedBackbone::new(&mut params, "m", tiny_cfg(), &mut rng);
        let g = Graph::new();
        let x = Tensor::randn(&[4, 8], 1.0, &mut rng);
        let out = model.forward(&g, &params, &x, None);
        assert_eq!(g.shape(out.logits), vec![4, 3]);
        assert_eq!(g.shape(out.cls), vec![4, 8]);
        assert_eq!(g.shape(out.tokens), vec![4, 3, 8]);
    }

    #[test]
    fn forward_with_prompts_changes_logits() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let model = PromptedBackbone::new(&mut params, "m", tiny_cfg(), &mut rng);
        let g = Graph::new();
        let x = Tensor::randn(&[2, 8], 1.0, &mut rng);
        let no_p = model.forward(&g, &params, &x, None);
        let pv = g.constant(Tensor::randn(&[2, 2, 8], 1.0, &mut rng));
        let with_p = model.forward(&g, &params, &x, Some(pv));
        assert_ne!(g.value(no_p.logits).data(), g.value(with_p.logits).data());
    }

    #[test]
    fn broadcast_prompts_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let model = PromptedBackbone::new(&mut params, "m", tiny_cfg(), &mut rng);
        let g = Graph::new();
        let p = g.constant(Tensor::randn(&[3, 8], 1.0, &mut rng));
        let bp = model.broadcast_prompts(&g, p, 4);
        assert_eq!(g.shape(bp), vec![4, 3, 8]);
    }

    #[test]
    fn backbone_learns_a_toy_problem() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = Params::new();
        let model = PromptedBackbone::new(&mut params, "m", tiny_cfg(), &mut rng);
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        // Three well-separated Gaussian classes.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for k in 0..3 {
            for _ in 0..8 {
                for j in 0..8 {
                    let center = if j % 3 == k { 2.0 } else { -1.0 };
                    xs.push(center + crate::tensor::gaussian(&mut rng) * 0.3);
                }
                ys.push(k);
            }
        }
        let x = Tensor::from_vec(xs, &[24, 8]);
        let mut last = f32::INFINITY;
        for _ in 0..60 {
            params.zero_grad();
            let g = Graph::new();
            let out = model.forward(&g, &params, &x, None);
            let loss = g.cross_entropy(out.logits, &ys);
            last = g.value(loss).data()[0];
            g.backward(loss, &mut params);
            opt.step(&mut params);
        }
        assert!(last < 0.3, "backbone failed to fit, loss {last}");
        let preds = model.predict(&params, &x);
        let correct = preds.iter().zip(&ys).filter(|(a, b)| a == b).count();
        assert!(correct >= 20, "only {correct}/24 correct");
    }

    #[test]
    fn frozen_tokenizer_never_moves() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = Params::new();
        let model = PromptedBackbone::new(&mut params, "m", tiny_cfg(), &mut rng);
        let frozen_before = params
            .value(params.id("m.tokenizer.embed.weight").unwrap())
            .clone();
        let mut opt = Sgd::new(0.1);
        let x = Tensor::randn(&[4, 8], 1.0, &mut rng);
        for _ in 0..3 {
            params.zero_grad();
            let g = Graph::new();
            let out = model.forward(&g, &params, &x, None);
            let loss = g.cross_entropy(out.logits, &[0, 1, 2, 0]);
            g.backward(loss, &mut params);
            opt.step(&mut params);
        }
        let frozen_after = params
            .value(params.id("m.tokenizer.embed.weight").unwrap())
            .clone();
        assert_eq!(frozen_before, frozen_after);
    }
}
