//! Embedding-dominated recommender workloads: NCF and DLRM.
//!
//! These models (Figure 4 and Figure 5 of the paper) have two phases:
//!
//! 1. an **embedding lookup phase** that gathers a handful of embedding
//!    vectors per sample from very large lookup tables — a sparse, low-locality
//!    gather; and
//! 2. a **dense DNN phase** (MLP stacks plus a feature-interaction step).
//!
//! The embedding tables are far larger than a single NPU's local memory, so the
//! case study of Section V model-parallelizes the tables across NPUs and
//! gathers remote embeddings over the system interconnect.
//!
//! Index streams are generated by a deterministic, seeded random generator;
//! both uniform and Zipfian (power-law popularity) distributions are supported.

use rand::distributions::Distribution;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use neummu_npu::layer::Layer;
use neummu_npu::tensor::DataType;

/// One embedding lookup table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct EmbeddingTableSpec {
    /// Table name.
    pub name: String,
    /// Number of rows (entities).
    pub rows: u64,
    /// Embedding vector width (elements per row).
    pub dim: u64,
    /// Number of lookups into this table per sample (multi-hot features pool
    /// several rows; single-hot features use 1).
    pub lookups_per_sample: u64,
}

impl EmbeddingTableSpec {
    /// Creates a table specification.
    #[must_use]
    pub fn new(name: impl Into<String>, rows: u64, dim: u64, lookups_per_sample: u64) -> Self {
        EmbeddingTableSpec {
            name: name.into(),
            rows,
            dim,
            lookups_per_sample,
        }
    }

    /// Bytes of one embedding vector (fp32 elements).
    #[must_use]
    pub fn vector_bytes(&self) -> u64 {
        self.dim * DataType::Fp32.bytes()
    }

    /// Total byte footprint of the table.
    #[must_use]
    pub fn table_bytes(&self) -> u64 {
        self.rows * self.vector_bytes()
    }
}

/// Popularity distribution of embedding-row accesses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum IndexDistribution {
    /// Every row equally likely (the paper's "very low temporal and spatial
    /// locality" assumption, Figure 4).
    Uniform,
    /// Zipfian popularity with the given exponent (>0); production traces are
    /// mildly skewed.
    Zipf {
        /// Skew exponent; larger means more skew towards popular rows.
        exponent: f64,
    },
}

/// The lookups of one minibatch: for each table, `batch × lookups_per_sample`
/// row indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LookupTrace {
    /// Row indices per table, indexed `[table][lookup]`.
    pub indices: Vec<Vec<u64>>,
}

/// A DNN-based recommender model with embedding tables and MLP stacks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EmbeddingModel {
    name: String,
    tables: Vec<EmbeddingTableSpec>,
    /// Width of the dense (continuous) input features fed to the bottom MLP.
    dense_features: u64,
    /// Bottom MLP widths (DLRM) — empty for NCF.
    bottom_mlp: Vec<u64>,
    /// Top MLP widths applied after feature interaction.
    top_mlp: Vec<u64>,
    distribution: IndexDistribution,
}

impl EmbeddingModel {
    /// The MLPerf neural collaborative filtering model (NCF): user and item
    /// embedding tables for both the GMF and MLP branches, followed by an MLP
    /// tower. Table sizes follow a production-scale deployment (hundreds of
    /// millions of users) rather than the small MovieLens academic dataset, in
    /// line with the paper's memory-capacity motivation (Section III-A).
    #[must_use]
    pub fn ncf() -> Self {
        let users = 200_000_000;
        let items = 5_000_000;
        EmbeddingModel {
            name: "NCF".to_string(),
            tables: vec![
                EmbeddingTableSpec::new("user_gmf", users, 64, 1),
                EmbeddingTableSpec::new("item_gmf", items, 64, 1),
                EmbeddingTableSpec::new("user_mlp", users, 64, 1),
                EmbeddingTableSpec::new("item_mlp", items, 64, 1),
            ],
            dense_features: 0,
            bottom_mlp: vec![],
            top_mlp: vec![256, 128, 64, 1],
            distribution: IndexDistribution::Uniform,
        }
    }

    /// Facebook's deep learning recommendation model (DLRM): a set of large
    /// sparse-feature embedding tables, a bottom MLP for dense features, dot
    /// product feature interaction and a top MLP.
    #[must_use]
    pub fn dlrm() -> Self {
        let tables = (0..8)
            .map(|i| EmbeddingTableSpec::new(format!("sparse_{i}"), 40_000_000, 64, 1))
            .collect();
        EmbeddingModel {
            name: "DLRM".to_string(),
            tables,
            dense_features: 13,
            bottom_mlp: vec![512, 256, 64],
            top_mlp: vec![512, 256, 1],
            distribution: IndexDistribution::Uniform,
        }
    }

    /// Model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The embedding tables.
    #[must_use]
    pub fn tables(&self) -> &[EmbeddingTableSpec] {
        &self.tables
    }

    /// Switches the index distribution (builder style).
    #[cfg(test)]
    #[must_use]
    pub fn with_distribution(mut self, distribution: IndexDistribution) -> Self {
        self.distribution = distribution;
        self
    }

    /// Index distribution used for lookup generation.
    #[must_use]
    pub fn distribution(&self) -> IndexDistribution {
        self.distribution
    }

    /// Total byte footprint of all embedding tables.
    #[must_use]
    pub fn total_embedding_bytes(&self) -> u64 {
        self.tables
            .iter()
            .map(EmbeddingTableSpec::table_bytes)
            .sum()
    }

    /// Embedding vectors gathered per sample (summed over tables).
    #[must_use]
    pub fn lookups_per_sample(&self) -> u64 {
        self.tables.iter().map(|t| t.lookups_per_sample).sum()
    }

    /// The dense layers executed after the embedding gather, lowered to NPU
    /// layers for the given batch size.
    ///
    /// NCF concatenates the gathered embeddings and runs its MLP tower; DLRM
    /// runs a bottom MLP on the dense features, interacts features, and runs a
    /// top MLP. Element-wise interaction work is small and accounted
    /// separately by the simulator ("Reduction" in Figure 15).
    #[must_use]
    pub fn mlp_layers(&self, batch: u64) -> Vec<Layer> {
        let mut layers = Vec::new();
        let emb_dim: u64 = self.tables.first().map_or(64, |t| t.dim);
        // Bottom MLP over dense features (DLRM only).
        let mut width = self.dense_features;
        for (i, out) in self.bottom_mlp.iter().enumerate() {
            layers.push(Layer::fully_connected(
                format!("{}_bot_mlp{}", self.name.to_lowercase(), i),
                batch,
                width.max(1),
                *out,
            ));
            width = *out;
        }
        // Top MLP input: concatenated embeddings (+ interacted dense feature).
        let interaction_width = if self.bottom_mlp.is_empty() {
            self.lookups_per_sample() * emb_dim
        } else {
            // DLRM dot-product interaction: pairwise dot products among the
            // gathered embeddings and the bottom-MLP output, concatenated with
            // the bottom-MLP output.
            let vectors = self.lookups_per_sample() + 1;
            vectors * (vectors - 1) / 2 + emb_dim
        };
        let mut width = interaction_width;
        for (i, out) in self.top_mlp.iter().enumerate() {
            layers.push(Layer::fully_connected(
                format!("{}_top_mlp{}", self.name.to_lowercase(), i),
                batch,
                width,
                *out,
            ));
            width = *out;
        }
        layers
    }

    /// Streams the lookup indices of one minibatch lazily as
    /// `(table index, row)` pairs, deterministically from `seed`.
    ///
    /// The sequence is identical to flattening [`Self::generate_lookups`]
    /// table by table (the trace form is implemented over this stream), but
    /// nothing is materialized: the gather simulator iterates millions of
    /// lookups at large batch sizes without the per-minibatch index buffers.
    #[must_use]
    pub fn lookup_stream(&self, batch: u64, seed: u64) -> LookupStream<'_> {
        LookupStream {
            model: self,
            rng: ChaCha8Rng::seed_from_u64(seed),
            table_idx: 0,
            remaining_in_table: self
                .tables
                .first()
                .map_or(0, |t| batch * t.lookups_per_sample),
            batch,
        }
    }

    /// Generates the lookup indices of one minibatch deterministically from
    /// `seed`.
    #[must_use]
    pub fn generate_lookups(&self, batch: u64, seed: u64) -> LookupTrace {
        let mut indices: Vec<Vec<u64>> = self
            .tables
            .iter()
            .map(|t| Vec::with_capacity((batch * t.lookups_per_sample) as usize))
            .collect();
        for (table_idx, row) in self.lookup_stream(batch, seed) {
            indices[table_idx].push(row);
        }
        LookupTrace { indices }
    }

    /// Bytes gathered from embedding tables for one minibatch.
    #[cfg(test)]
    #[must_use]
    pub fn gathered_bytes(&self, batch: u64) -> u64 {
        self.tables
            .iter()
            .map(|t| batch * t.lookups_per_sample * t.vector_bytes())
            .sum()
    }
}

/// Lazy, allocation-free iterator over the lookups of one minibatch (see
/// [`EmbeddingModel::lookup_stream`]). Yields `(table index, row)` pairs in
/// table order, drawing from one seeded RNG exactly as the materialized trace
/// does.
#[derive(Debug, Clone)]
pub struct LookupStream<'m> {
    model: &'m EmbeddingModel,
    rng: ChaCha8Rng,
    table_idx: usize,
    remaining_in_table: u64,
    batch: u64,
}

impl Iterator for LookupStream<'_> {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        // Advance past exhausted tables (including zero-lookup ones).
        while self.remaining_in_table == 0 {
            self.table_idx += 1;
            let table = self.model.tables.get(self.table_idx)?;
            self.remaining_in_table = self.batch * table.lookups_per_sample;
        }
        let table = &self.model.tables[self.table_idx];
        self.remaining_in_table -= 1;
        let row = sample_index(&mut self.rng, table.rows, self.model.distribution);
        Some((self.table_idx, row))
    }
}

/// Samples one row index from the given distribution.
fn sample_index<R: Rng>(rng: &mut R, rows: u64, distribution: IndexDistribution) -> u64 {
    match distribution {
        IndexDistribution::Uniform => rng.gen_range(0..rows),
        IndexDistribution::Zipf { exponent } => {
            // Inverse-CDF approximation of a bounded Zipf distribution.
            let u: f64 = rand::distributions::Open01.sample(rng);
            let s = 1.0 - exponent;
            let max = rows as f64;
            let idx = if (s.abs()) < 1e-9 {
                max.powf(u)
            } else {
                ((max.powf(s) - 1.0) * u + 1.0).powf(1.0 / s)
            };
            (idx.floor() as u64).min(rows - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_footprints_exceed_npu_local_memory() {
        // The motivating observation of Section III-A: embedding tables do not
        // fit in the tens of GBs of NPU-local memory.
        let ncf = EmbeddingModel::ncf();
        let dlrm = EmbeddingModel::dlrm();
        assert!(ncf.total_embedding_bytes() > 32u64 << 30);
        assert!(dlrm.total_embedding_bytes() > 64u64 << 30);
    }

    #[test]
    fn vector_sizes_are_hundreds_of_bytes() {
        // Embedding vectors are only a few hundred bytes (Section V), which is
        // why 2 MB demand paging over-fetches so badly.
        for table in EmbeddingModel::dlrm().tables() {
            assert_eq!(table.vector_bytes(), 256);
        }
    }

    #[test]
    fn lookup_generation_is_deterministic() {
        let model = EmbeddingModel::dlrm();
        let a = model.generate_lookups(8, 42);
        let b = model.generate_lookups(8, 42);
        let c = model.generate_lookups(8, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn lookup_indices_are_in_range() {
        for model in [EmbeddingModel::ncf(), EmbeddingModel::dlrm()] {
            let trace = model.generate_lookups(64, 7);
            for (table, indices) in model.tables().iter().zip(trace.indices.iter()) {
                assert_eq!(indices.len() as u64, 64 * table.lookups_per_sample);
                assert!(indices.iter().all(|&i| i < table.rows));
            }
        }
    }

    #[test]
    fn lookup_stream_flattens_the_generated_trace_exactly() {
        for model in [
            EmbeddingModel::ncf(),
            EmbeddingModel::dlrm(),
            EmbeddingModel::dlrm().with_distribution(IndexDistribution::Zipf { exponent: 1.1 }),
        ] {
            let trace = model.generate_lookups(8, 42);
            let flattened: Vec<(usize, u64)> = trace
                .indices
                .iter()
                .enumerate()
                .flat_map(|(t, rows)| rows.iter().map(move |&r| (t, r)))
                .collect();
            let streamed: Vec<(usize, u64)> = model.lookup_stream(8, 42).collect();
            assert_eq!(streamed, flattened, "{}", model.name());
        }
    }

    #[test]
    fn zipf_skews_towards_small_indices() {
        let model =
            EmbeddingModel::dlrm().with_distribution(IndexDistribution::Zipf { exponent: 1.1 });
        let trace = model.generate_lookups(256, 3);
        let uniform_trace = EmbeddingModel::dlrm().generate_lookups(256, 3);
        let rows = model.tables()[0].rows;
        let zipf_small = trace.indices[0].iter().filter(|&&i| i < rows / 100).count();
        let uni_small = uniform_trace.indices[0]
            .iter()
            .filter(|&&i| i < rows / 100)
            .count();
        assert!(
            zipf_small > uni_small,
            "zipf {zipf_small} vs uniform {uni_small}"
        );
    }

    #[test]
    fn mlp_layers_are_valid_and_scale_with_batch() {
        for model in [EmbeddingModel::ncf(), EmbeddingModel::dlrm()] {
            for batch in [1u64, 8, 64] {
                let layers = model.mlp_layers(batch);
                assert!(!layers.is_empty());
                for layer in &layers {
                    assert!(layer.validate().is_ok(), "{} invalid", layer.name());
                    assert_eq!(layer.batch(), batch);
                }
            }
        }
        // DLRM has both bottom and top MLPs; NCF only a top MLP.
        assert!(
            EmbeddingModel::dlrm().mlp_layers(1).len() > EmbeddingModel::ncf().mlp_layers(1).len()
        );
    }

    #[test]
    fn gathered_bytes_matches_trace() {
        let model = EmbeddingModel::ncf();
        let batch = 16;
        let per_lookup = 256;
        assert_eq!(
            model.gathered_bytes(batch),
            batch * model.lookups_per_sample() * per_lookup
        );
    }
}
