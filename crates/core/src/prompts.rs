//! Global prompt sharing and clustering (paper Eq. 2–5, 8).
//!
//! Clients upload **Local Prompt Groups** (LPGs): per-class balanced means of
//! their generated prompts (Eq. 2 — unweighted averaging so resource-rich
//! clients cannot skew the global prompt set). The server pools LPGs, then
//! clusters each class's prompts **domain-wise with FINCH** (Eq. 4) and keeps
//! one representative per cluster (Eq. 5), fixing the "80 % of participants
//! just moved to the new domain" imbalance that plain averaging suffers from.
//! Averaging the representatives across clusters and classes yields the
//! generalized prompt `P̄^g` (Eq. 8) used by the GPL loss.

use serde::{Deserialize, Serialize};

use refil_clustering::{cluster_means, finch_traced, kmeans};
use refil_telemetry::Telemetry;

/// How the server condenses each class's LPG pool into representatives —
/// FINCH is the paper's choice; k-means and plain averaging are the
/// `ablation_clustering` comparators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterMode {
    /// Parameter-free first-neighbour clustering (the paper, Eq. 4–5).
    Finch,
    /// Lloyd's k-means with a fixed cluster count.
    Kmeans(usize),
    /// No clustering: a single mean per class (the "directly averaging all
    /// prompts" strawman the paper argues against).
    Average,
}

/// One client's per-class prompt means for a round (Eq. 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalPromptGroup {
    /// Uploading client.
    pub client_id: usize,
    /// `(class, flattened p*d prompt)` pairs for classes present locally.
    pub prompts: Vec<(usize, Vec<f32>)>,
}

impl LocalPromptGroup {
    /// Serialized payload size in bytes (for traffic accounting).
    pub fn byte_len(&self) -> u64 {
        self.prompts
            .iter()
            .map(|(_, v)| 8 + 4 * v.len() as u64)
            .sum()
    }

    /// The wire envelope this group travels in (ids narrowed to the codec's
    /// fixed-width fields).
    pub fn to_wire(&self) -> refil_fed::PromptGroup {
        refil_fed::PromptGroup {
            client_id: self.client_id as u64,
            prompts: self
                .prompts
                .iter()
                .map(|(k, v)| (*k as u32, v.clone()))
                .collect(),
        }
    }

    /// Reconstructs the group from its decoded wire envelope.
    pub fn from_wire(g: refil_fed::PromptGroup) -> Self {
        Self {
            client_id: g.client_id as usize,
            prompts: g
                .prompts
                .into_iter()
                .map(|(k, v)| (k as usize, v))
                .collect(),
        }
    }
}

/// Why a [`GlobalPromptStore`] refuses a prompt group. Groups arrive from
/// peers, so each rule is a typed error rather than a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromptError {
    /// The class index is not below the store's class count.
    ClassOutOfRange {
        /// The class the group names.
        class: usize,
        /// The store's class count.
        classes: usize,
    },
    /// The prompt does not hold the store's `p·d` floats.
    WrongLength {
        /// The class the prompt is for.
        class: usize,
        /// Floats the prompt holds.
        len: usize,
        /// Floats the store expects.
        dim: usize,
    },
    /// The prompt holds a NaN or an infinity, which would reach FINCH.
    NonFinite {
        /// The class the prompt is for.
        class: usize,
    },
    /// The group lists a class twice, which would skew that class's pool.
    DuplicateClass {
        /// The repeated class.
        class: usize,
    },
}

impl std::fmt::Display for PromptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::ClassOutOfRange { class, classes } => {
                write!(f, "class {class} out of range (store has {classes})")
            }
            Self::WrongLength { class, len, dim } => {
                write!(f, "class {class} prompt has {len} floats, expected {dim}")
            }
            Self::NonFinite { class } => write!(f, "class {class} prompt is not finite"),
            Self::DuplicateClass { class } => write!(f, "class {class} listed twice"),
        }
    }
}

impl std::error::Error for PromptError {}

/// Server-side global prompt state: a bounded per-class history of uploaded
/// LPGs, FINCH-clustered into representatives after every round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalPromptStore {
    classes: usize,
    dim: usize,
    /// `pool[k]` = recent LPG history for class `k` (FIFO, bounded).
    pool: Vec<Vec<Vec<f32>>>,
    /// `reps[k]` = representative prompts for class `k` (cluster means).
    reps: Vec<Vec<Vec<f32>>>,
    /// Cap on stored representatives per class.
    per_class_cap: usize,
    /// Cap on the per-class LPG history.
    pool_cap: usize,
    /// Condensation algorithm.
    mode: ClusterMode,
}

impl GlobalPromptStore {
    /// Creates an empty store for `classes` classes of flattened prompt
    /// dimension `dim`.
    pub fn new(classes: usize, dim: usize) -> Self {
        Self {
            classes,
            dim,
            pool: vec![Vec::new(); classes],
            reps: vec![Vec::new(); classes],
            per_class_cap: 16,
            pool_cap: 64,
            mode: ClusterMode::Finch,
        }
    }

    /// Overrides the per-class representative cap.
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.per_class_cap = cap.max(1);
        self
    }

    /// Overrides the per-class LPG history cap.
    pub fn with_pool_cap(mut self, cap: usize) -> Self {
        self.pool_cap = cap.max(2);
        self
    }

    /// Overrides the condensation algorithm (ablation support).
    pub fn with_mode(mut self, mode: ClusterMode) -> Self {
        self.mode = mode;
        self
    }

    /// Flattened prompt dimension `p * d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether any representatives exist yet.
    pub fn is_empty(&self) -> bool {
        self.reps.iter().all(Vec::is_empty)
    }

    /// Total representative count across classes.
    pub fn total_reps(&self) -> usize {
        self.reps.iter().map(Vec::len).sum()
    }

    /// Representatives for class `k` (`P̂^{g,k}`, Eq. 5).
    pub fn class_representatives(&self, k: usize) -> &[Vec<f32>] {
        &self.reps[k]
    }

    /// Checks one group against the store's rules: every class in range
    /// and listed once, every prompt `p·d` finite floats.
    ///
    /// # Errors
    ///
    /// The first rule the group breaks, in entry order.
    pub fn check(&self, group: &LocalPromptGroup) -> Result<(), PromptError> {
        let mut seen = vec![false; self.classes];
        for (k, v) in &group.prompts {
            let class = *k;
            if class >= self.classes {
                return Err(PromptError::ClassOutOfRange {
                    class,
                    classes: self.classes,
                });
            }
            if std::mem::replace(&mut seen[class], true) {
                return Err(PromptError::DuplicateClass { class });
            }
            if v.len() != self.dim {
                return Err(PromptError::WrongLength {
                    class,
                    len: v.len(),
                    dim: self.dim,
                });
            }
            if !v.iter().all(|x| x.is_finite()) {
                return Err(PromptError::NonFinite { class });
            }
        }
        Ok(())
    }

    /// Ingests a round of uploads: each LPG joins its class's bounded FIFO
    /// history, then every touched class is re-clustered with FINCH (finest
    /// partition, Eq. 4–5) and the cluster means become the representatives.
    ///
    /// The history preserves prompts from domains whose clients no longer
    /// participate — the store is the framework's only cross-task memory,
    /// and it is rehearsal-free (no raw data, only `p*d`-float prompts).
    ///
    /// # Errors
    ///
    /// The first [`GlobalPromptStore::check`] failure among `uploads`; the
    /// store is then left unchanged.
    pub fn ingest(&mut self, uploads: &[LocalPromptGroup]) -> Result<(), PromptError> {
        self.ingest_traced(uploads, &Telemetry::disabled())
    }

    /// [`GlobalPromptStore::ingest`] wrapped in a `prompt_ingest` telemetry
    /// span; FINCH re-clustering spans nest inside it, and the resulting
    /// pool and representative sizes are recorded as histogram observations.
    ///
    /// # Errors
    ///
    /// As [`GlobalPromptStore::ingest`]: nothing is ingested if any group
    /// fails [`GlobalPromptStore::check`].
    pub fn ingest_traced(
        &mut self,
        uploads: &[LocalPromptGroup],
        telemetry: &Telemetry,
    ) -> Result<(), PromptError> {
        uploads.iter().try_for_each(|up| self.check(up))?;
        let _span = telemetry.span("prompt_ingest");
        let mut touched = vec![false; self.classes];
        for up in uploads {
            for (k, v) in &up.prompts {
                let pool = &mut self.pool[*k];
                pool.push(v.clone());
                if pool.len() > self.pool_cap {
                    pool.remove(0);
                }
                touched[*k] = true;
            }
        }
        for (k, was_touched) in touched.into_iter().enumerate() {
            if !was_touched {
                continue;
            }
            let pool = &self.pool[k];
            if pool.len() == 1 {
                self.reps[k] = pool.clone();
                continue;
            }
            let mut means = match self.mode {
                ClusterMode::Finch => {
                    let result = finch_traced(pool, telemetry);
                    // The finest partition separates domains (prompts from
                    // different domains are unlikely to be first neighbours);
                    // when it exceeds the cap, fall back to the hierarchy
                    // level closest to the cap.
                    let partition = if result.finest().num_clusters > self.per_class_cap {
                        result.closest_to(self.per_class_cap)
                    } else {
                        result.finest()
                    };
                    cluster_means(pool, &partition.labels, partition.num_clusters)
                }
                ClusterMode::Kmeans(kk) => kmeans(pool, kk.max(1), 17, 50).centroids,
                ClusterMode::Average => cluster_means(pool, &vec![0; pool.len()], 1),
            };
            means.truncate(self.per_class_cap);
            self.reps[k] = means;
        }
        telemetry.observe(
            "prompt.pool_size",
            self.pool.iter().map(Vec::len).sum::<usize>() as f64,
        );
        telemetry.observe("prompt.reps", self.total_reps() as f64);
        Ok(())
    }

    /// All representatives as a flat candidate list plus each one's class —
    /// the sampling set for the DPCL loss.
    pub fn candidates(&self) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut cands = Vec::with_capacity(self.total_reps());
        let mut classes = Vec::with_capacity(self.total_reps());
        for (k, reps) in self.reps.iter().enumerate() {
            for r in reps {
                cands.push(r.clone());
                classes.push(k);
            }
        }
        (cands, classes)
    }

    /// The generalized global prompt `P̄^g` (Eq. 8): the per-class average of
    /// clustered representatives, averaged across classes into a single
    /// flattened prompt. `None` while the store is empty.
    pub fn generalized_prompt(&self) -> Option<Vec<f32>> {
        let mut acc = vec![0.0f32; self.dim];
        let mut classes_with = 0usize;
        for reps in &self.reps {
            if reps.is_empty() {
                continue;
            }
            let mut class_mean = vec![0.0f32; self.dim];
            for r in reps {
                for (m, &x) in class_mean.iter_mut().zip(r) {
                    *m += x;
                }
            }
            for (a, m) in acc.iter_mut().zip(&class_mean) {
                *a += m / reps.len() as f32;
            }
            classes_with += 1;
        }
        if classes_with == 0 {
            return None;
        }
        for a in &mut acc {
            *a /= classes_with as f32;
        }
        Some(acc)
    }

    /// Broadcast payload size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.reps
            .iter()
            .map(|r| r.iter().map(|v| 4 * v.len() as u64).sum::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lpg(client: usize, class: usize, v: Vec<f32>) -> LocalPromptGroup {
        LocalPromptGroup {
            client_id: client,
            prompts: vec![(class, v)],
        }
    }

    #[test]
    fn ingest_clusters_two_domains() {
        let mut store = GlobalPromptStore::new(2, 2);
        // Class 0 prompts from two distinct "domains".
        store
            .ingest(&[
                lpg(0, 0, vec![1.0, 0.0]),
                lpg(1, 0, vec![0.95, 0.02]),
                lpg(2, 0, vec![0.0, 1.0]),
                lpg(3, 0, vec![0.03, 0.98]),
            ])
            .unwrap();
        assert_eq!(store.class_representatives(0).len(), 2);
        assert!(store.class_representatives(1).is_empty());
    }

    #[test]
    fn previous_reps_survive_new_rounds() {
        let mut store = GlobalPromptStore::new(1, 2);
        store
            .ingest(&[lpg(0, 0, vec![1.0, 0.0]), lpg(1, 0, vec![0.97, 0.03])])
            .unwrap();
        assert_eq!(store.total_reps(), 1);
        // A later round with only the other domain's prompts must not erase
        // the first domain's cluster: the LPG history keeps it alive.
        store
            .ingest(&[lpg(2, 0, vec![0.0, 1.0]), lpg(3, 0, vec![0.02, 0.97])])
            .unwrap();
        assert_eq!(store.class_representatives(0).len(), 2);
    }

    #[test]
    fn cluster_modes_condense_differently() {
        let uploads = vec![
            lpg(0, 0, vec![1.0, 0.0]),
            lpg(1, 0, vec![0.97, 0.03]),
            lpg(2, 0, vec![0.0, 1.0]),
            lpg(3, 0, vec![0.02, 0.97]),
        ];
        let mut f = GlobalPromptStore::new(1, 2);
        f.ingest(&uploads).unwrap();
        assert_eq!(f.class_representatives(0).len(), 2);
        let mut a = GlobalPromptStore::new(1, 2).with_mode(ClusterMode::Average);
        a.ingest(&uploads).unwrap();
        assert_eq!(a.class_representatives(0).len(), 1);
        let mut k = GlobalPromptStore::new(1, 2).with_mode(ClusterMode::Kmeans(3));
        k.ingest(&uploads).unwrap();
        assert_eq!(k.class_representatives(0).len(), 3);
    }

    #[test]
    fn pool_cap_bounds_history() {
        let mut store = GlobalPromptStore::new(1, 2).with_pool_cap(4);
        for i in 0..20 {
            store.ingest(&[lpg(i, 0, vec![i as f32, 1.0])]).unwrap();
        }
        assert!(store.pool[0].len() <= 4);
    }

    #[test]
    fn cap_limits_representatives() {
        let mut store = GlobalPromptStore::new(1, 2).with_cap(2);
        // Four orthogonal-ish directions would give up to 4 clusters.
        store
            .ingest(&[
                lpg(0, 0, vec![1.0, 0.0]),
                lpg(1, 0, vec![-1.0, 0.0]),
                lpg(2, 0, vec![0.0, 1.0]),
                lpg(3, 0, vec![0.0, -1.0]),
            ])
            .unwrap();
        assert!(store.class_representatives(0).len() <= 2);
    }

    #[test]
    fn generalized_prompt_is_mean_of_class_means() {
        let mut store = GlobalPromptStore::new(2, 2);
        store
            .ingest(&[lpg(0, 0, vec![2.0, 0.0]), lpg(1, 1, vec![0.0, 4.0])])
            .unwrap();
        let p = store.generalized_prompt().unwrap();
        assert_eq!(p, vec![1.0, 2.0]);
    }

    #[test]
    fn empty_store_has_no_generalized_prompt() {
        let store = GlobalPromptStore::new(3, 4);
        assert!(store.generalized_prompt().is_none());
        assert!(store.is_empty());
        assert_eq!(store.candidates().0.len(), 0);
    }

    #[test]
    fn candidates_align_with_classes() {
        let mut store = GlobalPromptStore::new(2, 2);
        store
            .ingest(&[lpg(0, 0, vec![1.0, 0.0]), lpg(1, 1, vec![0.0, 1.0])])
            .unwrap();
        let (cands, classes) = store.candidates();
        assert_eq!(cands.len(), classes.len());
        assert_eq!(classes, vec![0, 1]);
    }

    #[test]
    fn byte_len_counts_floats() {
        let mut store = GlobalPromptStore::new(1, 3);
        store.ingest(&[lpg(0, 0, vec![1.0, 2.0, 3.0])]).unwrap();
        assert_eq!(store.byte_len(), 12);
        let up = lpg(0, 0, vec![1.0, 2.0, 3.0]);
        assert_eq!(up.byte_len(), 8 + 12);
    }

    #[test]
    fn bad_groups_are_typed_errors_and_change_nothing() {
        let mut store = GlobalPromptStore::new(2, 2);
        store.ingest(&[lpg(0, 0, vec![1.0, 0.0])]).unwrap();
        let before = store.candidates();
        let bad = [
            (
                lpg(1, 2, vec![1.0, 0.0]),
                PromptError::ClassOutOfRange {
                    class: 2,
                    classes: 2,
                },
            ),
            (
                lpg(1, 1, vec![1.0]),
                PromptError::WrongLength {
                    class: 1,
                    len: 1,
                    dim: 2,
                },
            ),
            (
                lpg(1, 1, vec![f32::NAN, 0.0]),
                PromptError::NonFinite { class: 1 },
            ),
            (
                LocalPromptGroup {
                    client_id: 1,
                    prompts: vec![(1, vec![0.0, 1.0]), (1, vec![0.0, 1.0])],
                },
                PromptError::DuplicateClass { class: 1 },
            ),
        ];
        for (group, want) in bad {
            assert_eq!(store.check(&group), Err(want));
            // A good group beside the bad one is not ingested either.
            let round = [lpg(2, 1, vec![0.0, 1.0]), group];
            assert_eq!(store.ingest(&round), Err(want));
            assert_eq!(store.candidates(), before);
        }
    }
}
