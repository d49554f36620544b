//! The cluster loop both generators run. A kind of dataset is one [`Kind`]
//! of constants; [`Kind::generate`] draws its records from a seed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::corrupt::{corrupt_attr, Corruption};
use crate::entity::{Dataset, Entity, GroundTruth};
use crate::words::TITLE_OPENERS;
use crate::zipf::Zipf;

/// The constants that make one kind of synthetic dataset.
pub(crate) struct Kind {
    /// Dataset name prefix: a dataset is named `{name}-{n}-seed{seed}`.
    pub(crate) name: &'static str,
    /// Each attribute's name, in schema order, and how a duplicate copy
    /// corrupts it.
    pub(crate) attrs: &'static [(&'static str, Corruption)],
    /// XORed into the seed, so two kinds draw different streams from one seed.
    pub(crate) seed_mix: u64,
    /// Probability that a real-world object has more than one record.
    pub(crate) dup_cluster_prob: f64,
    /// Geometric continuation probability for cluster sizes beyond 2.
    pub(crate) cluster_growth: f64,
    /// Maximum cluster size.
    pub(crate) max_cluster: usize,
    /// Zipf exponent of the title-opener distribution (the block-skew knob).
    pub(crate) zipf_exponent: f64,
    /// Draws the master record of a cluster, given the opener distribution
    /// and the cluster id.
    pub(crate) master: fn(&mut StdRng, &Zipf, u32) -> Vec<String>,
}

impl Kind {
    /// Generate `n` records: per cluster a master record, then corrupted
    /// copies of it up to the cluster's size; then shuffle and number them.
    /// The RNG call sequence (and hence every byte of output) is pinned by
    /// the `books_golden` integration test.
    pub(crate) fn generate(&self, n: usize, seed: u64, dup_cluster_prob: f64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed ^ self.seed_mix);
        let openers = Zipf::new(TITLE_OPENERS.len(), self.zipf_exponent);

        let mut records: Vec<(u32, Vec<String>)> = Vec::with_capacity(n);
        let mut cluster = 0u32;
        while records.len() < n {
            let mut master = (self.master)(&mut rng, &openers, cluster);
            // The master is kept as a record: drop the spare capacity its
            // strings grew while being built.
            master.iter_mut().for_each(String::shrink_to_fit);
            let size = self
                .cluster_size(&mut rng, dup_cluster_prob)
                .min(n - records.len());
            let at = records.len();
            records.push((cluster, master));
            for _ in 1..size {
                let copy = records[at]
                    .1
                    .iter()
                    .zip(self.attrs)
                    .map(|(attr, (_, cfg))| corrupt_attr(&mut rng, attr, cfg))
                    .collect();
                records.push((cluster, copy));
            }
            cluster += 1;
        }

        records.shuffle(&mut rng);
        let (clusters, entities): (Vec<u32>, Vec<Entity>) = records
            .into_iter()
            .enumerate()
            .map(|(i, (c, attrs))| (c, Entity::new(i as u32, attrs)))
            .unzip();
        Dataset::new(
            format!("{}-{n}-seed{seed}", self.name),
            self.attrs
                .iter()
                .map(|(name, _)| name.to_string())
                .collect(),
            entities,
            GroundTruth::new(clusters),
        )
    }

    fn cluster_size(&self, rng: &mut StdRng, dup_cluster_prob: f64) -> usize {
        if !rng.random_bool(dup_cluster_prob.clamp(0.0, 1.0)) {
            return 1;
        }
        let mut size = 2;
        while size < self.max_cluster && rng.random_bool(self.cluster_growth) {
            size += 1;
        }
        size
    }
}
