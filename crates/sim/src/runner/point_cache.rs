//! One memoized cache for every simulated point.
//!
//! Every normalized figure divides a candidate MMU's cycles by the oracular
//! MMU's cycles on the same `(workload, batch)` point, and the sweeps keep
//! revisiting the same design points: Figure 8's baseline IOMMU is Figure
//! 12a's `PTW(8)` column and half of the Section IV-D summary, and NeuMMU
//! itself is Figure 12b's `[32, 128]`, Figure 13's only column and the other
//! half of the summary. The cache below simulates each distinct point exactly
//! once per cache lifetime — oracle baselines and candidates alike — and
//! hands out shared references to the result, across threads and across
//! experiment families.
//!
//! **The key rule.** A dense point's key is its workload, its batch and the
//! `Debug` rendering of its whole [`DenseSimConfig`], after one reduction:
//! the MMU's [`MmuKind`] label becomes oracle or engine
//! ([`MmuKind::Oracle`] or [`MmuKind::Custom`]). That is the only
//! distinction the label makes to a simulation
//! ([`neummu_mmu::TranslationEngine::for_config`] picks the oracle or the
//! cycle-accounted engine by it), while the builders (`with_ptws`, …) relabel
//! every configuration they touch as `Custom`. So `baseline_iommu()` and
//! `baseline_iommu().with_ptws(8)` share one key, and an oracle never shares
//! one with an engine.
//!
//! The multi-tenant family's *isolated tenant baselines* (a tenant's
//! contention-free solo run, the denominator of every per-tenant slowdown)
//! are served by the same exactly-once core from their own slot map. Their
//! key is the tenant plus the whole [`ServingConfig`] of the solo run, so a
//! tenant-count sweep 1→8 simulates each distinct tenant's baseline once.
//!
//! Every key is also the point's store key, under [`POINT_NAMESPACE`]: with a
//! [`Store`] attached, each point is restored from and committed to its slot.

use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use neummu_mmu::MmuKind;
use neummu_store::Store;
use neummu_workloads::{DenseWorkload, WorkloadId};

use crate::dense::{DenseSimConfig, DenseSimulator, WorkloadResult};
use crate::error::SimError;
use crate::multi_tenant::{TenantSpec, TenantStats};
use crate::persist::{
    decode_tenant_stats, decode_workload_result, encode_tenant_stats, encode_workload_result,
    POINT_NAMESPACE,
};
use crate::serving::{ServingConfig, ServingSimulator};

type Slot<T> = Arc<OnceLock<Result<Arc<T>, SimError>>>;
type SlotMap<T> = Mutex<HashMap<String, Slot<T>>>;

/// How a cached value round-trips through a store slot (the codecs are the
/// free functions of [`crate::persist`]).
trait Persisted: Sized {
    fn encode(&self) -> Vec<u8>;
    fn decode(payload: &[u8]) -> Option<Self>;
}

impl Persisted for WorkloadResult {
    fn encode(&self) -> Vec<u8> {
        encode_workload_result(self)
    }

    fn decode(payload: &[u8]) -> Option<Self> {
        decode_workload_result(payload).ok()
    }
}

impl Persisted for TenantStats {
    fn encode(&self) -> Vec<u8> {
        encode_tenant_stats(std::slice::from_ref(self))
    }

    fn decode(payload: &[u8]) -> Option<Self> {
        match decode_tenant_stats(payload).ok()?.as_slice() {
            [single] => Some(*single),
            _ => None,
        }
    }
}

/// A point's key, which is also its store key. The derived `Debug` of the
/// configuration escapes its strings, so the rendering is injective:
/// distinct points, distinct keys.
fn point_key(workload: WorkloadId, batch: u64, config: &impl Debug) -> String {
    format!("{POINT_NAMESPACE}/{workload:?}/b{batch}/{config:?}")
}

/// The key of a dense point, with the cache's key rule applied (see the
/// module docs): the MMU kind is reduced to oracle or engine.
fn dense_key(workload: WorkloadId, batch: u64, mut config: DenseSimConfig) -> String {
    if config.mmu.kind != MmuKind::Oracle {
        config.mmu.kind = MmuKind::Custom;
    }
    point_key(workload, batch, &config)
}

/// A thread-safe, exactly-once cache of simulated points: dense
/// [`WorkloadResult`]s and isolated [`TenantStats`] baselines.
///
/// With a [`Store`] attached ([`PointCache::attach_store`]), each key's
/// first in-process request consults the store before simulating and commits
/// the result after simulating, making points durable across runs. Store
/// damage of any kind falls back to recomputation — an attached store can
/// slow a run down (by exactly one recompute per damaged slot) but never
/// fail it or change its results.
#[derive(Debug, Default)]
pub struct PointCache {
    dense: SlotMap<WorkloadResult>,
    tenants: SlotMap<TenantStats>,
    store: Option<Arc<Store>>,
    simulations: AtomicU64,
    hits: AtomicU64,
}

impl PointCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a persistent slot store. From now on each key's first
    /// in-process request consults the store before simulating, and every
    /// freshly simulated point is committed back. Store put failures are
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

    /// The dense-suite point `(workload, batch)` simulated under `config`,
    /// run on the first request for its key and shared afterwards.
    /// `on_simulated` fires with the simulation's wall-clock duration if (and
    /// only if) this call actually simulated.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (the error is also memoized).
    pub fn dense(
        &self,
        workload: WorkloadId,
        batch: u64,
        config: DenseSimConfig,
        on_simulated: impl FnOnce(Duration),
    ) -> Result<Arc<WorkloadResult>, SimError> {
        self.memoized(
            &self.dense,
            dense_key(workload, batch, config),
            || {
                let layers = DenseWorkload::new(workload).layers(batch);
                DenseSimulator::new(config).simulate_workload(&layers)
            },
            on_simulated,
        )
    }

    /// The contention-free baseline of `tenant`: its solo closed-loop run
    /// ([`ServingSimulator::run_to_completion`]) under `config`, memoized
    /// exactly like [`PointCache::dense`].
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (the error is also memoized).
    pub fn isolated_tenant(
        &self,
        tenant: TenantSpec,
        config: &ServingConfig,
        on_simulated: impl FnOnce(Duration),
    ) -> Result<Arc<TenantStats>, SimError> {
        self.memoized(
            &self.tenants,
            point_key(tenant.workload, tenant.batch, config),
            || {
                ServingSimulator::new(config.clone())
                    .run_to_completion(&[tenant])
                    .map(|result| result.stats[0])
            },
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
    fn memoized<T: Persisted>(
        &self,
        map: &SlotMap<T>,
        key: String,
        simulate: impl FnOnce() -> Result<T, SimError>,
        on_simulated: impl FnOnce(Duration),
    ) -> Result<Arc<T>, SimError> {
        let slot = {
            let mut slots = map.lock().expect("point cache poisoned");
            Arc::clone(slots.entry(key.clone()).or_default())
        };
        let mut simulated: Option<Duration> = None;
        let result = slot.get_or_init(|| {
            if let Some(restored) = self
                .store
                .as_deref()
                .and_then(|store| store.get(&key))
                .and_then(|payload| T::decode(&payload))
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
                let _ = store.put(&key, &value.encode());
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

    /// Number of simulations actually executed.
    #[must_use]
    pub fn simulations(&self) -> u64 {
        self.simulations.load(Ordering::Relaxed)
    }

    /// Number of requests served from the cache without simulating.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct keys resident in the cache (dense points plus
    /// isolated tenant baselines).
    #[must_use]
    pub fn len(&self) -> usize {
        self.dense.lock().expect("point cache poisoned").len()
            + self.tenants.lock().expect("point cache poisoned").len()
    }

    /// True if no point has been requested yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neummu_mmu::MmuConfig;
    use neummu_npu::NpuConfig;
    use neummu_vmem::PageSize;

    fn config(mmu: MmuConfig, npu: NpuConfig) -> DenseSimConfig {
        DenseSimConfig {
            npu,
            ..DenseSimConfig::with_mmu(mmu)
        }
    }

    fn oracle(page_size: PageSize, npu: NpuConfig) -> DenseSimConfig {
        config(MmuConfig::oracle().with_page_size(page_size), npu)
    }

    #[test]
    fn second_request_hits_without_resimulating() {
        let cache = PointCache::new();
        let point = oracle(PageSize::Size4K, NpuConfig::tpu_like());
        let a = cache.dense(WorkloadId::Cnn1, 1, point, |_| {}).unwrap();
        let b = cache
            .dense(WorkloadId::Cnn1, 1, point, |_| panic!("must hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.simulations(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_page_sizes_and_npus_get_distinct_entries() {
        let cache = PointCache::new();
        let tpu = NpuConfig::tpu_like();
        let spatial = NpuConfig::spatial_array();
        for point in [
            oracle(PageSize::Size4K, tpu),
            oracle(PageSize::Size2M, tpu),
            oracle(PageSize::Size4K, spatial),
            config(MmuConfig::neummu(), tpu),
            config(MmuConfig::neummu().with_page_size(PageSize::Size2M), tpu),
            config(MmuConfig::neummu(), spatial),
        ] {
            cache.dense(WorkloadId::Rnn2, 1, point, |_| {}).unwrap();
        }
        assert_eq!(cache.simulations(), 6);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 6);
    }

    #[test]
    fn the_mmu_kind_reduces_to_oracle_or_engine() {
        let cache = PointCache::new();
        let tpu = NpuConfig::tpu_like();
        let iommu = MmuConfig::baseline_iommu();
        // The oracle carries the baseline IOMMU's fields under another kind;
        // it must never alias an engine point.
        assert_eq!(
            MmuConfig {
                kind: iommu.kind,
                ..MmuConfig::oracle()
            },
            iommu
        );
        let oracle = cache
            .dense(
                WorkloadId::Cnn1,
                1,
                config(MmuConfig::oracle(), tpu),
                |_| {},
            )
            .unwrap();
        let engine = cache
            .dense(WorkloadId::Cnn1, 1, config(iommu, tpu), |_| {})
            .unwrap();
        assert!(oracle.total_cycles < engine.total_cycles);
        // The same engine relabelled `Custom` by a builder is the same key.
        let custom = cache
            .dense(WorkloadId::Cnn1, 1, config(iommu.with_ptws(8), tpu), |_| {
                panic!("an aliased engine point must hit")
            })
            .unwrap();
        assert!(Arc::ptr_eq(&engine, &custom));
        assert_eq!(cache.simulations(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn scenario_tagged_tenant_baselines_memoize_exactly_once() {
        let cache = PointCache::new();
        let tenant = TenantSpec::new(WorkloadId::Cnn1, 1);
        let solo = ServingConfig::with_mmu(MmuConfig::neummu());
        let a = cache.isolated_tenant(tenant, &solo, |_| {}).unwrap();
        let b = cache
            .isolated_tenant(tenant, &solo, |_| panic!("second request must hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.simulations(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
        // A tenant baseline never aliases the dense point of its workload.
        cache
            .dense(
                WorkloadId::Cnn1,
                1,
                config(MmuConfig::neummu(), solo.npu),
                |_| {},
            )
            .unwrap();
        assert_eq!(cache.simulations(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn store_backed_cache_restores_instead_of_resimulating() {
        let dir = neummu_testdir::ScratchDir::new("point-store");
        let point = oracle(PageSize::Size4K, NpuConfig::tpu_like());

        // Cold store: the first cache simulates and commits.
        let mut cold = PointCache::new();
        cold.attach_store(Arc::new(Store::open(&dir).unwrap()));
        let simulated = cold.dense(WorkloadId::Rnn1, 1, point, |_| {}).unwrap();
        assert_eq!(cold.simulations(), 1);
        let counters = cold.store().unwrap().counters();
        assert_eq!((counters.misses, counters.commits), (1, 1));

        // Warm store, fresh process (modeled by a fresh cache): the value is
        // restored bit-identically without simulating.
        let mut warm = PointCache::new();
        warm.attach_store(Arc::new(Store::open(&dir).unwrap()));
        let restored = warm.dense(WorkloadId::Rnn1, 1, point, |_| {}).unwrap();
        assert_eq!(*restored, *simulated);
        assert_eq!(warm.simulations(), 0);
        assert_eq!(warm.store().unwrap().counters().hits, 1);

        // A corrupted slot degrades to a recompute with the same result.
        let store = Arc::new(Store::open(&dir).unwrap());
        store
            .corrupt_slot(&dense_key(WorkloadId::Rnn1, 1, point), 17)
            .unwrap();
        let mut damaged = PointCache::new();
        damaged.attach_store(Arc::clone(&store));
        let recomputed = damaged.dense(WorkloadId::Rnn1, 1, point, |_| {}).unwrap();
        assert_eq!(*recomputed, *simulated);
        assert_eq!(damaged.simulations(), 1);
        assert_eq!(store.counters().recovered, 1);
    }

    #[test]
    fn memoized_result_equals_a_direct_simulation() {
        let cache = PointCache::new();
        let layers = DenseWorkload::new(WorkloadId::Rnn2).layers(1);
        for point in [
            oracle(PageSize::Size4K, NpuConfig::tpu_like()),
            config(MmuConfig::baseline_iommu(), NpuConfig::tpu_like()),
        ] {
            let cached = cache.dense(WorkloadId::Rnn2, 1, point, |_| {}).unwrap();
            let direct = DenseSimulator::new(point)
                .simulate_workload(&layers)
                .unwrap();
            assert_eq!(*cached, direct);
        }
    }
}
