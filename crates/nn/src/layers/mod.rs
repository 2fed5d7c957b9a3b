//! Neural-network layers used by the RefFiL models.
//!
//! Each layer registers its parameters in a [`Params`](crate::Params) store at
//! construction time and records its computation on a per-pass
//! [`Graph`](crate::Graph) in `forward`.

mod attention;
mod classifier;
mod conv_extractor;
mod dropout;
mod embedding;
mod extractor;
mod film;
mod linear;
mod mlp;
mod norm;
mod tokenizer;

pub use attention::TransformerBlock;
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use film::Film;
pub use linear::Linear;
pub use mlp::Mlp;
pub use norm::LayerNorm;

pub(crate) use classifier::Classifier;
pub(crate) use conv_extractor::ConvExtractor;
pub(crate) use extractor::ResidualExtractor;
pub(crate) use tokenizer::PatchTokenizer;
