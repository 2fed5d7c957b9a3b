//! # refil-data
//!
//! Synthetic domain-incremental datasets for the RefFiL reproduction.
//!
//! The paper evaluates on Digits-Five, OfficeCaltech10, PACS and a DomainNet
//! subset ("FedDomainNet"). Those image corpora are unavailable here, so this
//! crate generates structure-preserving synthetic analogues: shared class
//! prototypes observed under per-domain orthogonal rotations, shifts and
//! noise (see [`synth`] for the substitution rationale), plus the paper's
//! quantity-shift non-iid client partitioning.
//!
//! # Examples
//!
//! ```
//! use refil_data::{digits_five, PresetConfig};
//!
//! let dataset = digits_five(PresetConfig::small()).generate(42);
//! assert_eq!(dataset.num_domains(), 5);
//! assert_eq!(dataset.classes, 10);
//! ```

#![warn(missing_docs)]

mod batch;
mod partition;
mod presets;
#[cfg(test)]
mod proptests;
mod sample;
pub mod synth;

pub use batch::{collate, minibatches, Batch};
pub use partition::{partition_quantity_shift, QuantityShift};
pub use presets::{
    digits_five, fed_domain_net, office_caltech10, pacs, PresetConfig, DIGITS_FIVE_NEW_ORDER,
    FED_DOMAIN_NET_CLASSES, FED_DOMAIN_NET_COUNTS, FED_DOMAIN_NET_DOMAINS,
    FED_DOMAIN_NET_NEW_ORDER, OFFICE_CALTECH10_NEW_ORDER, PACS_NEW_ORDER,
};
pub use sample::{DomainData, FdilDataset, Sample};
pub use synth::{DatasetSpec, DomainSpec};
