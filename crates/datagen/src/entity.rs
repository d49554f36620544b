//! Entities, datasets, and ground truth.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{BufRead, Write};

/// Entity identifier: the index of the entity within its [`Dataset`].
pub type EntityId = u32;

/// One entity: an attribute vector following its dataset's schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entity {
    /// Position of this entity in the dataset (stable identifier).
    pub id: EntityId,
    /// Attribute values, indexed per the dataset schema. Empty string means
    /// a missing value.
    pub attrs: Vec<String>,
}

impl Entity {
    /// Construct an entity.
    pub fn new(id: EntityId, attrs: Vec<String>) -> Self {
        Self { id, attrs }
    }

    /// Attribute value at `idx`, or `""` if missing/out of range.
    pub fn attr(&self, idx: usize) -> &str {
        self.attrs.get(idx).map_or("", String::as_str)
    }
}

/// Exact duplicate-cluster ground truth: `cluster_of[id]` is the cluster of
/// entity `id`; two entities are duplicates iff their clusters are equal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroundTruth {
    cluster_of: Vec<u32>,
}

impl GroundTruth {
    /// Build from a per-entity cluster assignment.
    pub fn new(cluster_of: Vec<u32>) -> Self {
        Self { cluster_of }
    }

    /// Number of entities covered.
    pub fn len(&self) -> usize {
        self.cluster_of.len()
    }

    /// True if the truth covers no entities.
    pub fn is_empty(&self) -> bool {
        self.cluster_of.is_empty()
    }

    /// Cluster id of entity `id`.
    pub fn cluster(&self, id: EntityId) -> u32 {
        self.cluster_of[id as usize]
    }

    /// True iff the two entities represent the same real-world object.
    #[inline]
    pub fn is_duplicate(&self, a: EntityId, b: EntityId) -> bool {
        a != b && self.cluster_of[a as usize] == self.cluster_of[b as usize]
    }

    /// Total number of duplicate pairs `N` in the dataset (Eq. 1's
    /// normalizer): `Σ_clusters |c|·(|c|−1)/2`.
    pub fn total_duplicate_pairs(&self) -> u64 {
        let mut sizes: HashMap<u32, u64> = HashMap::new();
        for &c in &self.cluster_of {
            *sizes.entry(c).or_insert(0) += 1;
        }
        sizes.values().map(|&n| n * (n - 1) / 2).sum()
    }

    /// Number of distinct clusters (real-world objects).
    pub fn num_clusters(&self) -> usize {
        let mut clusters: Vec<u32> = self.cluster_of.clone();
        clusters.sort_unstable();
        clusters.dedup();
        clusters.len()
    }
}

/// A dataset: schema, entities, and ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Human-readable dataset name.
    pub name: String,
    /// Attribute names; `entities[i].attrs` follows this order.
    pub schema: Vec<String>,
    /// The entities; `entities[i].id == i`.
    pub entities: Vec<Entity>,
    /// Duplicate-cluster ground truth.
    pub truth: GroundTruth,
}

impl Dataset {
    /// Construct a dataset, checking that ids are dense and truth covers all
    /// entities.
    ///
    /// # Panics
    /// Panics if `entities[i].id != i` for some `i`, or if the truth length
    /// differs from the entity count.
    pub fn new(
        name: impl Into<String>,
        schema: Vec<String>,
        entities: Vec<Entity>,
        truth: GroundTruth,
    ) -> Self {
        assert_eq!(
            entities.len(),
            truth.len(),
            "ground truth must cover every entity"
        );
        for (i, e) in entities.iter().enumerate() {
            assert_eq!(e.id as usize, i, "entity ids must be dense indices");
        }
        Self {
            name: name.into(),
            schema,
            entities,
            truth,
        }
    }

    /// Number of entities `|D|`.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// True if the dataset has no entities.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Entity by id.
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id as usize]
    }

    /// Serialize as JSON-lines: a header object, then one entity per line.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        #[derive(Serialize)]
        struct Header<'a> {
            name: &'a str,
            schema: &'a [String],
            clusters: &'a GroundTruth,
        }
        let header = Header {
            name: &self.name,
            schema: &self.schema,
            clusters: &self.truth,
        };
        serde_json::to_writer(&mut w, &header)?;
        writeln!(w)?;
        for e in &self.entities {
            serde_json::to_writer(&mut w, e)?;
            writeln!(w)?;
        }
        Ok(())
    }

    /// Deserialize from the format produced by [`Dataset::write_jsonl`].
    pub fn read_jsonl<R: BufRead>(r: R) -> std::io::Result<Self> {
        #[derive(Deserialize)]
        struct Header {
            name: String,
            schema: Vec<String>,
            clusters: GroundTruth,
        }
        let mut lines = r.lines();
        let header_line = lines
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "no header"))??;
        let header: Header = serde_json::from_str(&header_line)?;
        let mut entities = Vec::new();
        for line in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            entities.push(serde_json::from_str::<Entity>(&line)?);
        }
        Ok(Dataset::new(
            header.name,
            header.schema,
            entities,
            header.clusters,
        ))
    }

    /// Take a prefix of the dataset (used to scale experiments down); cluster
    /// ids are preserved so truth stays exact.
    pub fn truncated(&self, n: usize) -> Dataset {
        let n = n.min(self.len());
        Dataset::new(
            format!("{}[..{}]", self.name, n),
            self.schema.clone(),
            self.entities[..n].to_vec(),
            GroundTruth::new(self.truth.cluster_of[..n].to_vec()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let entities = vec![
            Entity::new(0, vec!["a".into()]),
            Entity::new(1, vec!["a'".into()]),
            Entity::new(2, vec!["b".into()]),
        ];
        Dataset::new(
            "tiny",
            vec!["name".into()],
            entities,
            GroundTruth::new(vec![0, 0, 1]),
        )
    }

    #[test]
    fn truth_pair_counting() {
        let t = GroundTruth::new(vec![0, 0, 0, 1, 1, 2]);
        assert_eq!(t.total_duplicate_pairs(), 3 + 1);
        assert_eq!(t.num_clusters(), 3);
        assert!(t.is_duplicate(0, 1));
        assert!(!t.is_duplicate(0, 3));
        assert!(!t.is_duplicate(2, 2), "an entity is not its own duplicate");
    }

    #[test]
    fn attr_access_handles_missing() {
        let e = Entity::new(0, vec!["x".into()]);
        assert_eq!(e.attr(0), "x");
        assert_eq!(e.attr(5), "");
    }

    #[test]
    #[should_panic(expected = "dense indices")]
    fn rejects_non_dense_ids() {
        let _ = Dataset::new(
            "bad",
            vec![],
            vec![Entity::new(7, vec![])],
            GroundTruth::new(vec![0]),
        );
    }

    #[test]
    #[should_panic(expected = "cover every entity")]
    fn rejects_short_truth() {
        let _ = Dataset::new(
            "bad",
            vec![],
            vec![Entity::new(0, vec![])],
            GroundTruth::new(vec![]),
        );
    }

    #[test]
    fn jsonl_round_trip() {
        let ds = tiny();
        let mut buf = Vec::new();
        ds.write_jsonl(&mut buf).unwrap();
        let back = Dataset::read_jsonl(std::io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.name, ds.name);
        assert_eq!(back.schema, ds.schema);
        assert_eq!(back.entities, ds.entities);
        assert_eq!(back.truth, ds.truth);
    }

    #[test]
    fn truncated_preserves_truth() {
        let ds = tiny().truncated(2);
        assert_eq!(ds.len(), 2);
        assert!(ds.truth.is_duplicate(0, 1));
        assert_eq!(ds.truth.total_duplicate_pairs(), 1);
    }
}
