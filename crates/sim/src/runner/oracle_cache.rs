//! Memoization of oracle baseline simulations.
//!
//! Every normalized figure divides a candidate configuration's cycles by the
//! oracular MMU's cycles on the same `(workload, batch)` point. The oracle
//! result does not depend on the candidate MMU at all — only on the workload,
//! the batch size, the translation page size and the NPU architecture — so a
//! sweep over N MMU configurations used to re-simulate the same baseline N
//! times. The cache below runs each baseline exactly once per distinct key and
//! hands out shared references to the result, across threads and across
//! experiments within one runner.
//!
//! The multi-tenant experiment family reuses the same key type for its
//! *isolated tenant baselines* (a tenant's contention-free solo run, the
//! denominator of every per-tenant slowdown): [`OracleKey::scenario`] carries
//! the ASID/tenant-mix fingerprint — MMU design point, scheduling burst,
//! resource mode — so a tenant-count sweep 1→8 simulates each distinct
//! tenant's baseline once instead of once per sweep point.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use neummu_mmu::MmuConfig;
use neummu_npu::NpuConfig;
use neummu_store::Store;
use neummu_vmem::PageSize;
use neummu_workloads::{DenseWorkload, WorkloadId};

use crate::dense::{DenseSimConfig, DenseSimulator, WorkloadResult};
use crate::error::SimError;
use crate::multi_tenant::TenantStats;
use crate::persist::{
    decode_tenant_stats, decode_workload_result, encode_tenant_stats, encode_workload_result,
    ORACLE_NAMESPACE, TENANT_NAMESPACE,
};

/// Identity of one oracle baseline simulation.
///
/// The paper's sweeps vary only the MMU, so `(workload, batch, page size)`
/// is the key within an experiment family; the NPU fingerprint keeps the
/// spatial-array studies (Section VI-B) from aliasing the TPU-like baselines.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OracleKey {
    /// Workload identity.
    pub workload: WorkloadId,
    /// Batch size.
    pub batch: u64,
    /// Page size the oracle translates at.
    pub page_size: PageSize,
    /// Stable fingerprint of the NPU architecture parameters.
    pub npu_fingerprint: String,
    /// Scenario discriminator. Empty for the classic dense oracle baseline;
    /// the multi-tenant family stores its ASID/tenant-mix fingerprint here
    /// (MMU design point, scheduling burst, resource mode) so isolated
    /// tenant baselines never alias oracle baselines — or each other across
    /// different engine configurations.
    pub scenario: String,
}

impl OracleKey {
    /// Builds the key for a `(workload, batch, page size, NPU)` oracle
    /// baseline point (the empty scenario).
    #[must_use]
    pub fn new(workload: WorkloadId, batch: u64, page_size: PageSize, npu: &NpuConfig) -> Self {
        OracleKey {
            workload,
            batch,
            page_size,
            // NpuConfig is a plain-old-data struct; its Debug rendering is a
            // deterministic fingerprint of every architecture parameter.
            npu_fingerprint: format!("{npu:?}"),
            scenario: String::new(),
        }
    }

    /// [`OracleKey::new`] with an explicit scenario fingerprint (the
    /// multi-tenant isolated-baseline namespace).
    #[must_use]
    pub fn for_scenario(
        workload: WorkloadId,
        batch: u64,
        page_size: PageSize,
        npu: &NpuConfig,
        scenario: impl Into<String>,
    ) -> Self {
        let mut key = Self::new(workload, batch, page_size, npu);
        key.scenario = scenario.into();
        key
    }
}

type Slot<T> = Arc<OnceLock<Result<Arc<T>, SimError>>>;
type SlotMap<T> = Mutex<HashMap<OracleKey, Slot<T>>>;

/// How a cached value round-trips through the persistent store: the slot key
/// (namespace prefix + injective key fingerprint) plus encode/decode hooks.
/// Plain function pointers — the codecs are free functions in
/// [`crate::persist`], and a `fn` keeps [`OracleCache::memoized`] monomorphic
/// per value type rather than per call site.
struct Persist<T> {
    store_key: String,
    encode: fn(&T) -> Vec<u8>,
    decode: fn(&[u8]) -> Option<T>,
}

fn decode_workload_opt(payload: &[u8]) -> Option<WorkloadResult> {
    decode_workload_result(payload).ok()
}

fn encode_tenant_one(stats: &TenantStats) -> Vec<u8> {
    encode_tenant_stats(std::slice::from_ref(stats))
}

fn decode_tenant_one(payload: &[u8]) -> Option<TenantStats> {
    match decode_tenant_stats(payload).ok()?.as_slice() {
        [single] => Some(*single),
        _ => None,
    }
}

/// A thread-safe, exactly-once cache of oracle baseline results (and, under
/// scenario-tagged keys, of the multi-tenant family's isolated tenant
/// baselines).
///
/// With a [`Store`] attached ([`OracleCache::attach_store`]), each key's
/// first in-process request consults the store before simulating and commits
/// the result after simulating, making baselines durable across runs. Store
/// damage of any kind falls back to recomputation — an attached store can
/// slow a run down (by exactly one recompute per damaged slot) but never
/// fail it or change its results.
#[derive(Debug, Default)]
pub struct OracleCache {
    slots: SlotMap<WorkloadResult>,
    tenant_slots: SlotMap<TenantStats>,
    store: Option<Arc<Store>>,
    simulations: AtomicU64,
    hits: AtomicU64,
}

impl OracleCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a persistent slot store. From now on each key's first
    /// in-process request consults the store before simulating, and every
    /// freshly simulated baseline is committed back. Store put failures are
    /// swallowed (the value is still served from memory); damaged or stale
    /// slots decode-fail into a recompute.
    pub fn attach_store(&mut self, store: Arc<Store>) {
        self.store = Some(store);
    }

    /// The attached persistent store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Returns the oracle baseline for the point, simulating it on the first
    /// request for its key and reusing the shared result afterwards.
    ///
    /// Concurrent requests for the same key block on the in-flight simulation
    /// instead of duplicating it, so each key is simulated exactly once per
    /// cache lifetime.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (the error is also memoized).
    pub fn oracle_result(
        &self,
        workload: WorkloadId,
        batch: u64,
        page_size: PageSize,
        npu: NpuConfig,
    ) -> Result<Arc<WorkloadResult>, SimError> {
        self.oracle_result_with(workload, batch, page_size, npu, |_| {})
    }

    /// [`OracleCache::oracle_result`], invoking `on_simulated` with the
    /// simulation's wall-clock duration if (and only if) this call actually
    /// ran the baseline — the hook the runner uses to attribute baseline time
    /// to its own self-profile phase instead of whichever experiment happened
    /// to request the key first.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (the error is also memoized).
    pub fn oracle_result_with(
        &self,
        workload: WorkloadId,
        batch: u64,
        page_size: PageSize,
        npu: NpuConfig,
        on_simulated: impl FnOnce(Duration),
    ) -> Result<Arc<WorkloadResult>, SimError> {
        let key = OracleKey::new(workload, batch, page_size, &npu);
        let persist = Persist {
            // The derived Debug of OracleKey escapes its strings, so the
            // rendering is injective: distinct keys, distinct store keys.
            store_key: format!("{ORACLE_NAMESPACE}/{key:?}"),
            encode: encode_workload_result,
            decode: decode_workload_opt,
        };
        self.memoized(
            &self.slots,
            key,
            persist,
            || simulate_oracle(workload, batch, page_size, npu),
            on_simulated,
        )
    }

    /// The shared exactly-once core: looks up (or creates) the key's slot in
    /// `map`, runs `simulate` on first initialization (counted as a
    /// simulation, reported via `on_simulated`), and serves every later
    /// request from the slot (counted as a hit). Concurrent requests for the
    /// same key block on the in-flight simulation instead of duplicating it.
    ///
    /// With a store attached, the first initialization consults the store
    /// before simulating (a restored value counts as a hit, not a
    /// simulation) and commits freshly simulated values back. Both sides run
    /// inside `get_or_init`, so each key touches the store at most once per
    /// process — store counters are therefore deterministic across thread
    /// counts.
    fn memoized<T>(
        &self,
        map: &SlotMap<T>,
        key: OracleKey,
        persist: Persist<T>,
        simulate: impl FnOnce() -> Result<T, SimError>,
        on_simulated: impl FnOnce(Duration),
    ) -> Result<Arc<T>, SimError> {
        let slot = {
            let mut slots = map.lock().expect("oracle cache poisoned");
            Arc::clone(slots.entry(key).or_default())
        };
        let mut simulated: Option<Duration> = None;
        let result = slot.get_or_init(|| {
            if let Some(restored) = self
                .store
                .as_deref()
                .and_then(|store| store.get(&persist.store_key))
                .and_then(|payload| (persist.decode)(&payload))
            {
                return Ok(Arc::new(restored));
            }
            self.simulations.fetch_add(1, Ordering::Relaxed);
            let started = Instant::now();
            let result = simulate().map(Arc::new);
            simulated = Some(started.elapsed());
            if let (Some(store), Ok(value)) = (self.store.as_deref(), &result) {
                // A failed commit only costs the next run a recompute; the
                // in-memory value is unaffected, so the error is dropped.
                let _ = store.put(&persist.store_key, &(persist.encode)(value));
            }
            result
        });
        match simulated {
            Some(elapsed) => on_simulated(elapsed),
            None => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        result.clone()
    }

    /// Returns the memoized result of `simulate` for a scenario-tagged key
    /// (the multi-tenant family's isolated tenant baselines), running it on
    /// the first request for the key and sharing the result afterwards —
    /// exactly-once semantics identical to [`OracleCache::oracle_result_with`].
    /// `on_simulated` fires with the wall-clock duration only when this call
    /// actually simulated.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (the error is also memoized).
    pub fn tenant_baseline_with(
        &self,
        key: OracleKey,
        simulate: impl FnOnce() -> Result<TenantStats, SimError>,
        on_simulated: impl FnOnce(Duration),
    ) -> Result<Arc<TenantStats>, SimError> {
        let persist = Persist {
            store_key: format!("{TENANT_NAMESPACE}/{key:?}"),
            encode: encode_tenant_one,
            decode: decode_tenant_one,
        };
        self.memoized(&self.tenant_slots, key, persist, simulate, on_simulated)
    }

    /// Number of oracle simulations actually executed.
    #[must_use]
    pub fn simulations(&self) -> u64 {
        self.simulations.load(Ordering::Relaxed)
    }

    /// Number of requests served from the cache without simulating.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct keys resident in the cache (oracle baselines plus
    /// scenario-tagged tenant baselines).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.lock().expect("oracle cache poisoned").len()
            + self
                .tenant_slots
                .lock()
                .expect("oracle cache poisoned")
                .len()
    }

    /// True if no baseline has been requested yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The canonical oracle baseline simulation for a dense-suite point: the
/// paper's default setup with the oracular MMU at the given page size. This is
/// exactly what [`crate::experiments::performance`] normalizes against, so a
/// memoized result is bit-identical to a freshly simulated one.
fn simulate_oracle(
    workload: WorkloadId,
    batch: u64,
    page_size: PageSize,
    npu: NpuConfig,
) -> Result<WorkloadResult, SimError> {
    let mut config = DenseSimConfig::with_mmu(MmuConfig::oracle().with_page_size(page_size));
    config.npu = npu;
    let layers = DenseWorkload::new(workload).layers(batch);
    DenseSimulator::new(config).simulate_workload(&layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_request_hits_without_resimulating() {
        let cache = OracleCache::new();
        let npu = NpuConfig::tpu_like();
        let a = cache
            .oracle_result(WorkloadId::Cnn1, 1, PageSize::Size4K, npu)
            .unwrap();
        let b = cache
            .oracle_result(WorkloadId::Cnn1, 1, PageSize::Size4K, npu)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.simulations(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_page_sizes_and_npus_get_distinct_entries() {
        let cache = OracleCache::new();
        let tpu = NpuConfig::tpu_like();
        let spatial = NpuConfig::spatial_array();
        cache
            .oracle_result(WorkloadId::Rnn2, 1, PageSize::Size4K, tpu)
            .unwrap();
        cache
            .oracle_result(WorkloadId::Rnn2, 1, PageSize::Size2M, tpu)
            .unwrap();
        cache
            .oracle_result(WorkloadId::Rnn2, 1, PageSize::Size4K, spatial)
            .unwrap();
        assert_eq!(cache.simulations(), 3);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn scenario_tagged_tenant_baselines_memoize_exactly_once() {
        use crate::multi_tenant::{MultiTenantConfig, TenantScheduler, TenantSpec};
        use neummu_mmu::MmuConfig;

        let cache = OracleCache::new();
        let npu = NpuConfig::tpu_like();
        let config = MultiTenantConfig::with_mmu(MmuConfig::neummu()).isolated();
        let key = || {
            OracleKey::for_scenario(
                WorkloadId::Cnn1,
                1,
                PageSize::Size4K,
                &npu,
                format!(
                    "mt-isolated/{:?}/burst{}",
                    config.mmu, config.burst_transactions
                ),
            )
        };
        let simulate = || {
            TenantScheduler::new(config)
                .run(&[TenantSpec::new(WorkloadId::Cnn1, 1)])
                .map(|r| r.stats[0])
        };
        let a = cache.tenant_baseline_with(key(), simulate, |_| {}).unwrap();
        let b = cache
            .tenant_baseline_with(key(), || panic!("second request must hit"), |_| {})
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.simulations(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
        // A scenario-tagged key never aliases the untagged oracle namespace.
        cache
            .oracle_result(WorkloadId::Cnn1, 1, PageSize::Size4K, npu)
            .unwrap();
        assert_eq!(cache.simulations(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn store_backed_cache_restores_instead_of_resimulating() {
        let dir = neummu_testdir::ScratchDir::new("oracle-store");
        let npu = NpuConfig::tpu_like();

        // Cold store: the first cache simulates and commits.
        let mut cold = OracleCache::new();
        cold.attach_store(Arc::new(Store::open(&dir).unwrap()));
        let simulated = cold
            .oracle_result(WorkloadId::Rnn1, 1, PageSize::Size4K, npu)
            .unwrap();
        assert_eq!(cold.simulations(), 1);
        let counters = cold.store().unwrap().counters();
        assert_eq!((counters.misses, counters.commits), (1, 1));

        // Warm store, fresh process (modeled by a fresh cache): the value is
        // restored bit-identically without simulating.
        let mut warm = OracleCache::new();
        warm.attach_store(Arc::new(Store::open(&dir).unwrap()));
        let restored = warm
            .oracle_result(WorkloadId::Rnn1, 1, PageSize::Size4K, npu)
            .unwrap();
        assert_eq!(*restored, *simulated);
        assert_eq!(warm.simulations(), 0);
        assert_eq!(warm.store().unwrap().counters().hits, 1);

        // A corrupted slot degrades to a recompute with the same result.
        let store = Arc::new(Store::open(&dir).unwrap());
        let key = OracleKey::new(WorkloadId::Rnn1, 1, PageSize::Size4K, &npu);
        store
            .corrupt_slot(&format!("{ORACLE_NAMESPACE}/{key:?}"), 17)
            .unwrap();
        let mut damaged = OracleCache::new();
        damaged.attach_store(Arc::clone(&store));
        let recomputed = damaged
            .oracle_result(WorkloadId::Rnn1, 1, PageSize::Size4K, npu)
            .unwrap();
        assert_eq!(*recomputed, *simulated);
        assert_eq!(damaged.simulations(), 1);
        assert_eq!(store.counters().recovered, 1);
    }

    #[test]
    fn memoized_result_equals_a_direct_simulation() {
        let cache = OracleCache::new();
        let npu = NpuConfig::tpu_like();
        let cached = cache
            .oracle_result(WorkloadId::Rnn2, 1, PageSize::Size4K, npu)
            .unwrap();
        let direct = simulate_oracle(WorkloadId::Rnn2, 1, PageSize::Size4K, npu).unwrap();
        assert_eq!(*cached, direct);
    }
}
