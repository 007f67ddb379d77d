//! DMA transaction generation: the source of translation bursts.
//!
//! A tile fetch is a multi-MB byte window of an operand segment. Because the
//! operands are multi-dimensional tensors mapped onto a linear address space,
//! the DMA decomposes each tile into many smaller linearized memory
//! transactions, every one of which needs a virtual-to-physical translation
//! before the data can be read (Section III-C). The DMA issues these
//! translation requests back to back — up to one per cycle — which is what
//! produces the translation bursts of Figure 7 and the per-tile page
//! divergence of Figure 6.

use serde::Serialize;

use crate::config::DmaConfig;
use crate::tensor::TensorKind;
use crate::tiling::TileFetch;

/// One linearized memory transaction issued by the DMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MemTransaction {
    /// Operand tensor the transaction reads.
    pub kind: TensorKind,
    /// Byte offset within the operand's segment.
    pub offset: u64,
    /// Transaction length in bytes.
    pub bytes: u64,
}

impl MemTransaction {
    /// One-past-the-end offset.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.offset + self.bytes
    }
}

/// Non-allocating iterator over the memory transactions of one tile fetch
/// (see [`DmaEngine::transaction_iter`]).
#[derive(Debug, Clone, Copy)]
pub struct TransactionIter {
    kind: TensorKind,
    cursor: u64,
    end: u64,
    txn_bytes: u64,
}

impl Iterator for TransactionIter {
    type Item = MemTransaction;

    #[inline]
    fn next(&mut self) -> Option<MemTransaction> {
        if self.cursor >= self.end {
            return None;
        }
        let next_boundary = (self.cursor / self.txn_bytes + 1) * self.txn_bytes;
        let chunk_end = next_boundary.min(self.end);
        let txn = MemTransaction {
            kind: self.kind,
            offset: self.cursor,
            bytes: chunk_end - self.cursor,
        };
        self.cursor = chunk_end;
        Some(txn)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = if self.cursor >= self.end {
            0
        } else {
            let first = self.cursor / self.txn_bytes;
            let last = (self.end - 1) / self.txn_bytes;
            (last - first + 1) as usize
        };
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for TransactionIter {}

/// A maximal group of consecutive transactions of one tile fetch whose
/// *starting* addresses fall on the same page (see [`DmaEngine::page_runs`]).
///
/// Because the DMA linearizes a tile fetch into back-to-back transactions,
/// consecutive transactions land on the same page until the stream crosses a
/// page boundary — the structural property (Section III-C) the run-coalesced
/// translation path exploits: the run needs one real TLB interaction, and the
/// remaining `txn_count - 1` requests replay arithmetically. A transaction
/// that straddles a page boundary belongs to the run of its starting address,
/// exactly like the per-transaction path, which translates each transaction
/// by its starting address only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRun {
    /// Page number (`va >> log2(page_bytes)`) of every transaction's starting
    /// address.
    pub page: u64,
    /// The run's first transaction (possibly a short head).
    pub first: MemTransaction,
    /// Number of transactions in the run.
    pub txn_count: u64,
    /// Total bytes across the run's transactions.
    pub bytes: u64,
    /// The DMA transaction grain: every interior transaction is exactly this
    /// long and aligned to it.
    txn_bytes: u64,
}

impl PageRun {
    /// One-past-the-end segment offset of the run's data.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.first.offset + self.bytes
    }

    /// Segment offset of the `index`-th transaction of the run.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `index >= txn_count`.
    #[must_use]
    pub fn offset_of(&self, index: u64) -> u64 {
        debug_assert!(index < self.txn_count);
        if index == 0 {
            self.first.offset
        } else {
            (self.first.offset / self.txn_bytes + index) * self.txn_bytes
        }
    }

    /// Segment offset of the run's last transaction.
    #[must_use]
    pub fn last_offset(&self) -> u64 {
        self.offset_of(self.txn_count - 1)
    }

    /// Length in bytes of the `index`-th transaction of the run.
    #[must_use]
    pub fn txn_len(&self, index: u64) -> u64 {
        debug_assert!(index < self.txn_count);
        let start = self.offset_of(index);
        let next = (start / self.txn_bytes + 1) * self.txn_bytes;
        next.min(self.end()) - start
    }

    /// The `index`-th transaction of the run, reconstructed arithmetically.
    #[must_use]
    pub fn txn(&self, index: u64) -> MemTransaction {
        MemTransaction {
            kind: self.first.kind,
            offset: self.offset_of(index),
            bytes: self.txn_len(index),
        }
    }

    /// Length of every interior transaction (the DMA transaction grain).
    #[must_use]
    pub fn interior_txn_bytes(&self) -> u64 {
        self.txn_bytes
    }

    /// The run's first `count` transactions as a run of their own.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `count` is zero or exceeds `txn_count`.
    #[must_use]
    pub fn prefix(&self, count: u64) -> PageRun {
        debug_assert!(count >= 1 && count <= self.txn_count);
        if count == self.txn_count {
            return *self;
        }
        // `count < txn_count`, so transaction `count` exists and starts at an
        // aligned boundary: the prefix ends exactly where it begins.
        PageRun {
            txn_count: count,
            bytes: self.offset_of(count) - self.first.offset,
            ..*self
        }
    }

    /// The run with its first `skip` transactions removed (the remainder a
    /// caller resumes after a partially consumed run).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `skip` is zero or not smaller than
    /// `txn_count`.
    #[must_use]
    pub fn suffix(&self, skip: u64) -> PageRun {
        debug_assert!(skip >= 1 && skip < self.txn_count);
        let first = self.txn(skip);
        PageRun {
            first,
            txn_count: self.txn_count - skip,
            bytes: self.end() - first.offset,
            ..*self
        }
    }

    /// Rejoins this run with `tail`, the piece that immediately follows it —
    /// the inverse of splitting one run with [`PageRun::prefix`] /
    /// [`PageRun::suffix`] at the same point. Callers that clip a run and
    /// then consume the clipped prefix only partially use this to reassemble
    /// the two contiguous remainders into one run.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) unless `tail` starts exactly where this run
    /// ends, on the same page and transaction grain.
    #[must_use]
    pub fn join(&self, tail: &PageRun) -> PageRun {
        debug_assert_eq!(self.page, tail.page, "joined pieces share a page");
        debug_assert_eq!(
            self.txn_bytes, tail.txn_bytes,
            "joined pieces share a grain"
        );
        debug_assert_eq!(
            self.end(),
            tail.first.offset,
            "joined pieces are contiguous"
        );
        PageRun {
            txn_count: self.txn_count + tail.txn_count,
            bytes: self.bytes + tail.bytes,
            ..*self
        }
    }
}

/// Iterator over the [`PageRun`]s of a tile fetch: the exact partition of
/// [`DmaEngine::transaction_iter`] into maximal same-page groups, produced in
/// O(1) arithmetic per run instead of per transaction.
#[derive(Debug, Clone, Copy)]
pub struct PageRunIter {
    kind: TensorKind,
    cursor: u64,
    end: u64,
    txn_bytes: u64,
    base_va: u64,
    page_shift: u32,
}

impl Iterator for PageRunIter {
    type Item = PageRun;

    #[inline]
    fn next(&mut self) -> Option<PageRun> {
        if self.cursor >= self.end {
            return None;
        }
        let va = self.base_va + self.cursor;
        let page = va >> self.page_shift;
        // First segment offset whose VA lies on the next page; transactions
        // *starting* before it belong to this run.
        let page_end_off = ((page + 1) << self.page_shift) - self.base_va;
        let limit = page_end_off.min(self.end);
        let first_index = self.cursor / self.txn_bytes;
        let txn_count = (limit - 1) / self.txn_bytes - first_index + 1;
        let run_end = ((first_index + txn_count) * self.txn_bytes).min(self.end);
        let first = MemTransaction {
            kind: self.kind,
            offset: self.cursor,
            bytes: ((first_index + 1) * self.txn_bytes).min(self.end) - self.cursor,
        };
        let run = PageRun {
            page,
            first,
            txn_count,
            bytes: run_end - self.cursor,
            txn_bytes: self.txn_bytes,
        };
        self.cursor = run_end;
        Some(run)
    }
}

/// Summary of the translation demand created by one tile fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TileTranslationDemand {
    /// Number of memory transactions (== translation requests).
    pub transactions: u64,
    /// Number of distinct 4 KB pages touched.
    pub distinct_pages_4k: u64,
    /// Number of distinct 2 MB pages touched.
    pub distinct_pages_2m: u64,
}

/// The DMA engine: decomposes tile fetches into memory transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DmaEngine {
    config: DmaConfig,
}

impl DmaEngine {
    /// Creates a DMA engine with the given configuration.
    #[must_use]
    pub fn new(config: DmaConfig) -> Self {
        DmaEngine { config }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> DmaConfig {
        self.config
    }

    /// Streams the linearized memory transactions of a tile fetch without
    /// materializing them.
    ///
    /// Transactions are aligned to the transaction size within the segment so
    /// that a transaction never straddles more pages than necessary; the first
    /// and last transactions may be short. This is the simulators' hot path:
    /// a multi-MB tile decomposes into thousands of transactions, and the
    /// iterator produces them one `Copy` value at a time instead of one
    /// `Vec<MemTransaction>` per fetch.
    #[must_use]
    pub fn transaction_iter(&self, fetch: &TileFetch) -> TransactionIter {
        TransactionIter {
            kind: fetch.kind,
            cursor: fetch.offset,
            end: fetch.end(),
            txn_bytes: self.config.max_transaction_bytes,
        }
    }

    /// Streams the maximal same-page transaction runs of a tile fetch: the
    /// exact partition of [`DmaEngine::transaction_iter`] into groups of
    /// consecutive transactions whose starting virtual addresses
    /// (`base_va + offset`) share one `page_bytes`-sized page.
    ///
    /// This is the entry point of the run-coalesced translation path: each
    /// run costs O(1) to produce and needs one real translation; the
    /// remaining `txn_count - 1` requests of the run replay arithmetically.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `page_bytes` is not a power of two.
    #[must_use]
    pub fn page_runs(&self, fetch: &TileFetch, base_va: u64, page_bytes: u64) -> PageRunIter {
        debug_assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two, got {page_bytes}"
        );
        PageRunIter {
            kind: fetch.kind,
            cursor: fetch.offset,
            end: fetch.end(),
            txn_bytes: self.config.max_transaction_bytes,
            base_va,
            page_shift: page_bytes.trailing_zeros(),
        }
    }

    /// Decomposes a tile fetch into linearized memory transactions,
    /// materialized as a `Vec` (convenience form of
    /// [`DmaEngine::transaction_iter`] for tests and inspection).
    #[must_use]
    pub fn transactions(&self, fetch: &TileFetch) -> Vec<MemTransaction> {
        self.transaction_iter(fetch).collect()
    }

    /// Number of transactions a fetch decomposes into, without materializing
    /// them.
    #[must_use]
    pub fn transaction_count(&self, fetch: &TileFetch) -> u64 {
        if fetch.bytes == 0 {
            return 0;
        }
        let txn = self.config.max_transaction_bytes;
        let first = fetch.offset / txn;
        let last = (fetch.end() - 1) / txn;
        last - first + 1
    }

    /// Translation demand (transactions and distinct pages) of a tile fetch.
    #[must_use]
    pub fn translation_demand(&self, fetch: &TileFetch) -> TileTranslationDemand {
        let pages_4k = Self::distinct_pages(fetch, 12);
        let pages_2m = Self::distinct_pages(fetch, 21);
        TileTranslationDemand {
            transactions: self.transaction_count(fetch),
            distinct_pages_4k: pages_4k,
            distinct_pages_2m: pages_2m,
        }
    }

    fn distinct_pages(fetch: &TileFetch, shift: u32) -> u64 {
        if fetch.bytes == 0 {
            return 0;
        }
        let first = fetch.offset >> shift;
        let last = (fetch.end() - 1) >> shift;
        last - first + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> DmaEngine {
        DmaEngine::new(DmaConfig {
            max_transaction_bytes: 512,
            translations_per_cycle: 1,
        })
    }

    fn fetch(offset: u64, bytes: u64) -> TileFetch {
        TileFetch {
            kind: TensorKind::Weight,
            offset,
            bytes,
        }
    }

    #[test]
    fn aligned_fetch_decomposes_into_equal_transactions() {
        let txns = engine().transactions(&fetch(0, 4096));
        assert_eq!(txns.len(), 8);
        assert!(txns.iter().all(|t| t.bytes == 512));
        assert_eq!(txns[0].offset, 0);
        assert_eq!(txns[7].end(), 4096);
    }

    #[test]
    fn unaligned_fetch_has_short_head_and_tail() {
        let txns = engine().transactions(&fetch(100, 1024));
        let total: u64 = txns.iter().map(|t| t.bytes).sum();
        assert_eq!(total, 1024);
        assert_eq!(txns.first().unwrap().offset, 100);
        assert_eq!(txns.first().unwrap().bytes, 412);
        assert_eq!(txns.last().unwrap().end(), 1124);
        // Interior transactions are aligned to the transaction size.
        for t in &txns[1..] {
            assert_eq!(t.offset % 512, 0);
        }
    }

    #[test]
    fn transaction_count_matches_materialized_list() {
        for (off, len) in [
            (0u64, 512u64),
            (1, 1),
            (511, 2),
            (1000, 100_000),
            (4096, 5 << 20),
        ] {
            let f = fetch(off, len);
            assert_eq!(
                engine().transaction_count(&f),
                engine().transactions(&f).len() as u64,
                "mismatch for offset {off} len {len}"
            );
        }
        assert_eq!(engine().transaction_count(&fetch(0, 0)), 0);
    }

    #[test]
    fn a_5mb_tile_produces_kilo_scale_translation_bursts() {
        // The headline numbers from Section III-C: a 5 MB tile covers ~1.2K
        // distinct 4 KB pages and decomposes into several thousand
        // transactions, each needing a translation.
        let demand = engine().translation_demand(&fetch(0, 5 << 20));
        assert_eq!(demand.distinct_pages_4k, 1280);
        assert_eq!(demand.transactions, 10240);
        assert!(demand.transactions > demand.distinct_pages_4k);
        assert_eq!(demand.distinct_pages_2m, 3);
    }

    #[test]
    fn page_counts_account_for_straddling() {
        let demand = engine().translation_demand(&fetch(4000, 200));
        assert_eq!(demand.distinct_pages_4k, 2);
        let demand = engine().translation_demand(&fetch(4000, 50));
        assert_eq!(demand.distinct_pages_4k, 1);
    }

    #[test]
    fn transaction_iter_matches_materialized_list_and_knows_its_length() {
        for (off, len) in [
            (0u64, 0u64),
            (0, 512),
            (1, 1),
            (100, 1024),
            (511, 2),
            (1000, 100_000),
            (4096, 5 << 20),
        ] {
            let f = fetch(off, len);
            let iter = engine().transaction_iter(&f);
            assert_eq!(iter.len() as u64, engine().transaction_count(&f));
            let streamed: Vec<MemTransaction> = iter.collect();
            assert_eq!(streamed, engine().transactions(&f));
        }
    }

    /// Replays a run iterator transaction by transaction and checks it
    /// against the reference per-transaction decomposition.
    fn assert_runs_partition(fetch: &TileFetch, base_va: u64, page_bytes: u64) {
        let eng = engine();
        let reference = eng.transactions(fetch);
        let mut rebuilt = Vec::new();
        let mut prev_page = None;
        for run in eng.page_runs(fetch, base_va, page_bytes) {
            assert!(run.txn_count >= 1);
            assert_eq!(run.bytes, (0..run.txn_count).map(|i| run.txn_len(i)).sum());
            assert_eq!(run.first, run.txn(0));
            assert_eq!(run.last_offset(), run.txn(run.txn_count - 1).offset);
            // Every transaction's starting VA lies on the run's page; maximal
            // runs never repeat the previous run's page.
            for i in 0..run.txn_count {
                assert_eq!((base_va + run.offset_of(i)) / page_bytes, run.page);
                rebuilt.push(run.txn(i));
            }
            assert_ne!(prev_page, Some(run.page), "runs must be maximal");
            prev_page = Some(run.page);
        }
        assert_eq!(rebuilt, reference, "runs must partition the transactions");
    }

    #[test]
    fn page_runs_partition_the_transaction_stream() {
        for (off, len) in [
            (0u64, 0u64),
            (0, 512),
            (1, 1),
            (100, 1024),
            (4000, 200),
            (1000, 100_000),
            (4096, 5 << 20),
        ] {
            assert_runs_partition(&fetch(off, len), 0x10_0000, 4096);
            assert_runs_partition(&fetch(off, len), 0x10_0000, 2 << 20);
        }
    }

    #[test]
    fn page_runs_group_eight_transactions_per_4k_page() {
        // The canonical burst shape: 512-byte transactions, 4 KB pages.
        let runs: Vec<PageRun> = engine().page_runs(&fetch(0, 16384), 0, 4096).collect();
        assert_eq!(runs.len(), 4);
        assert!(runs.iter().all(|r| r.txn_count == 8 && r.bytes == 4096));
        assert_eq!(runs[0].page, 0);
        assert_eq!(runs[3].page, 3);
    }

    #[test]
    fn straddling_transactions_belong_to_their_starting_page() {
        // Transactions of 3000 bytes with 4 KB pages: most transactions
        // straddle a page boundary; each belongs to its starting page and the
        // runs still partition the stream.
        let eng = DmaEngine::new(DmaConfig {
            max_transaction_bytes: 3000,
            translations_per_cycle: 1,
        });
        let f = fetch(500, 30_000);
        let reference = eng.transactions(&f);
        let rebuilt: Vec<MemTransaction> = eng
            .page_runs(&f, 0, 4096)
            .flat_map(|run| (0..run.txn_count).map(move |i| run.txn(i)))
            .collect();
        assert_eq!(rebuilt, reference);
    }

    #[test]
    fn prefix_and_suffix_split_a_run_exactly() {
        let run = engine()
            .page_runs(&fetch(100, 4096), 0, 4096)
            .next()
            .unwrap();
        assert!(run.txn_count > 2);
        for split in 1..run.txn_count {
            let prefix = run.prefix(split);
            let suffix = run.suffix(split);
            assert_eq!(prefix.txn_count + suffix.txn_count, run.txn_count);
            assert_eq!(prefix.bytes + suffix.bytes, run.bytes);
            assert_eq!(suffix.first, run.txn(split));
            assert_eq!(suffix.end(), run.end());
            for i in 0..prefix.txn_count {
                assert_eq!(prefix.txn(i), run.txn(i));
            }
            for i in 0..suffix.txn_count {
                assert_eq!(suffix.txn(i), run.txn(split + i));
            }
        }
        assert_eq!(run.prefix(run.txn_count), run);
    }

    #[test]
    fn transactions_preserve_tensor_kind() {
        let f = TileFetch {
            kind: TensorKind::InputActivation,
            offset: 0,
            bytes: 2048,
        };
        assert!(engine()
            .transactions(&f)
            .iter()
            .all(|t| t.kind == TensorKind::InputActivation));
    }
}
