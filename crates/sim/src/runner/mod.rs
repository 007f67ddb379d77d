//! The parallel experiment runner.
//!
//! The paper's evaluation is a grid of `(workload, batch, MMU design point)`
//! simulation cells, every cell independent of every other. This module turns
//! that grid into a job list executed on a hand-rolled scoped thread pool
//! ([`pool`]), with two cross-cutting services:
//!
//! * a **point cache** ([`point_cache`]) so that each distinct simulated
//!   point — an oracle baseline, a candidate MMU on a dense point, or an
//!   isolated tenant baseline — is simulated exactly once per runner lifetime,
//!   however many figures ask for it, and
//! * a **self-profile** ([`profile`]) recording per-job wall-clock time under
//!   a phase label, so `neummu-experiments` can report where simulation time
//!   goes.
//!
//! # Determinism
//!
//! Parallel and serial schedules produce bit-identical results: each job is a
//! pure function of its index, results are collected in index order, and all
//! floating-point aggregation happens after collection, in that order. A
//! memoized point is produced by exactly the simulation the uncached path
//! would run, so sharing it cannot perturb a single bit. This is locked in by
//! the `determinism` integration test and by the CI step that diffs a
//! `--threads 4` artifact tree against a serial one.

pub mod point_cache;
pub mod pool;
pub mod profile;

pub use point_cache::PointCache;
pub use profile::{PhaseStats, SelfProfile};

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use neummu_mmu::MmuConfig;
use neummu_npu::NpuConfig;
use neummu_workloads::WorkloadId;

use crate::dense::{DenseSimConfig, WorkloadResult};
use crate::error::SimError;
use crate::multi_tenant::{TenantSpec, TenantStats};
use crate::serving::ServingConfig;

thread_local! {
    /// Set while this thread runs a [`ExperimentRunner::run_jobs`] job: time
    /// recorded then is already inside the job's own recorded time.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Executes experiment job graphs on a thread pool with a shared point cache
/// and self-profiling.
///
/// One runner is meant to live for a whole experiments run (the
/// `neummu-experiments` binary builds exactly one), so points are shared
/// across experiment families: Figure 8 and the Section IV-D summary, for
/// example, read the very same memoized oracle and baseline-IOMMU points.
#[derive(Debug)]
pub struct ExperimentRunner {
    threads: usize,
    cache: PointCache,
    profile: SelfProfile,
}

impl Default for ExperimentRunner {
    /// Equivalent to `ExperimentRunner::new(0)`: available parallelism.
    fn default() -> Self {
        Self::new(0)
    }
}

impl ExperimentRunner {
    /// Creates a runner with the given worker-thread count; `0` selects the
    /// machine's available parallelism and `1` is the serial reference path.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        ExperimentRunner {
            threads,
            cache: PointCache::new(),
            profile: SelfProfile::new(),
        }
    }

    /// Attaches a persistent slot store (see [`PointCache::attach_store`]):
    /// memoized points are restored from and committed to it, so interrupted
    /// sweeps resume instead of recomputing. Builder-style, called before the
    /// runner is shared.
    #[must_use]
    pub fn with_store(mut self, store: Arc<neummu_store::Store>) -> Self {
        self.cache.attach_store(store);
        self
    }

    /// Number of worker threads jobs run on.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared point cache.
    #[must_use]
    pub fn cache(&self) -> &PointCache {
        &self.cache
    }

    /// The wall-clock self-profile accumulated so far.
    #[must_use]
    pub fn profile(&self) -> &SelfProfile {
        &self.profile
    }

    /// Runs `job(0..count)` on the pool and returns the results in job-index
    /// order, recording each job's wall-clock time under `phase`.
    ///
    /// # Errors
    ///
    /// If any job fails, returns the error of the lowest-indexed failing job
    /// (independent of scheduling, so error reporting is deterministic too).
    pub fn run_jobs<T, F>(&self, phase: &str, count: usize, job: F) -> Result<Vec<T>, SimError>
    where
        T: Send,
        F: Fn(usize) -> Result<T, SimError> + Sync,
    {
        pool::run_indexed(self.threads, count, |index| {
            let started = Instant::now();
            let outer = IN_JOB.replace(true);
            let result = job(index);
            IN_JOB.set(outer);
            self.profile.record(phase, started.elapsed());
            result
        })
        .into_iter()
        .collect()
    }

    /// Records a point's simulation time under `phase`: as nested time when
    /// a job requested the point, as a job of its own otherwise.
    fn record_point(&self, phase: &str, elapsed: Duration) {
        if IN_JOB.get() {
            self.profile.record_nested(phase, elapsed);
        } else {
            self.profile.record(phase, elapsed);
        }
    }

    /// The dense-suite point `(workload, batch)` under the given MMU and
    /// NPU, from the runner's point cache: simulated on the first request for
    /// its key, shared afterwards. A point that actually simulates here is
    /// profiled under the `point/dense` phase — as nested time when a job
    /// requested it, since the job's phase already contains it. (Phase
    /// timings are inclusive wall-clock per job, so a job blocked on another
    /// thread's in-flight point still counts that wait in its own phase.)
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn dense_point(
        &self,
        workload: WorkloadId,
        batch: u64,
        mmu: MmuConfig,
        npu: NpuConfig,
    ) -> Result<Arc<WorkloadResult>, SimError> {
        let config = DenseSimConfig {
            npu,
            ..DenseSimConfig::with_mmu(mmu)
        };
        self.cache.dense(workload, batch, config, |elapsed| {
            self.record_point("point/dense", elapsed);
        })
    }

    /// The contention-free baseline of one tenant: its solo closed-loop run
    /// under `config`, from the point cache. This is the denominator of every
    /// per-tenant slowdown, so a tenant-count sweep simulates each distinct
    /// baseline once.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn isolated_tenant_point(
        &self,
        spec: TenantSpec,
        config: &ServingConfig,
    ) -> Result<Arc<TenantStats>, SimError> {
        self.cache.isolated_tenant(spec, config, |elapsed| {
            self.record_point("multi_tenant/isolated-baseline", elapsed);
        })
    }

    /// Performance of `mmu` on a point, normalized to the oracle at the same
    /// page size; both sides come from the point cache.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn normalized_point(
        &self,
        workload: WorkloadId,
        batch: u64,
        mmu: MmuConfig,
        npu: NpuConfig,
    ) -> Result<f64, SimError> {
        let oracle = MmuConfig::oracle().with_page_size(mmu.page_size);
        let oracle = self.dense_point(workload, batch, oracle, npu)?;
        let candidate = self.dense_point(workload, batch, mmu, npu)?;
        Ok(candidate.normalized_to(&oracle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let runner = ExperimentRunner::new(0);
        assert!(runner.threads() >= 1);
        assert_eq!(ExperimentRunner::new(1).threads(), 1);
        assert_eq!(ExperimentRunner::new(4).threads(), 4);
    }

    #[test]
    fn run_jobs_preserves_index_order_and_profiles() {
        let runner = ExperimentRunner::new(4);
        let results = runner
            .run_jobs("square", 32, |i| Ok(i * i))
            .expect("jobs are infallible");
        assert_eq!(results[31], 31 * 31);
        let phases = runner.profile().phases();
        assert_eq!(phases["square"].jobs, 32);
    }

    #[test]
    fn run_jobs_reports_the_lowest_indexed_error() {
        let runner = ExperimentRunner::new(4);
        let result: Result<Vec<usize>, SimError> = runner.run_jobs("failing", 16, |i| {
            if i % 2 == 1 {
                Err(SimError::InvalidConfig {
                    reason: format!("job {i}"),
                })
            } else {
                Ok(i)
            }
        });
        match result {
            Err(SimError::InvalidConfig { reason }) => assert_eq!(reason, "job 1"),
            other => panic!("expected the job-1 error, got {other:?}"),
        }
    }

    #[test]
    fn points_simulated_inside_a_job_are_nested_time() {
        let runner = ExperimentRunner::new(1);
        let npu = NpuConfig::tpu_like();
        runner
            .run_jobs("outer", 1, |_| {
                runner.dense_point(WorkloadId::Cnn1, 1, MmuConfig::oracle(), npu)
            })
            .unwrap();
        // Outside any job, a point is a job of its own.
        runner
            .dense_point(WorkloadId::Rnn2, 1, MmuConfig::oracle(), npu)
            .unwrap();
        let profile = runner.profile();
        let phases = profile.phases();
        assert_eq!(profile.nested_phases()["point/dense"].jobs, 1);
        assert_eq!(phases["point/dense"].jobs, 1);
        assert_eq!(
            profile.total_busy(),
            phases["outer"].total + phases["point/dense"].total
        );
    }

    #[test]
    fn normalized_point_uses_the_cache() {
        let runner = ExperimentRunner::new(1);
        let npu = NpuConfig::tpu_like();
        let a = runner
            .normalized_point(WorkloadId::Cnn1, 1, MmuConfig::baseline_iommu(), npu)
            .unwrap();
        let b = runner
            .normalized_point(WorkloadId::Cnn1, 1, MmuConfig::neummu(), npu)
            .unwrap();
        assert!(a > 0.0 && b > 0.0);
        // One oracle plus two candidates; the second oracle request hits.
        assert_eq!(runner.cache().simulations(), 3);
        assert_eq!(runner.cache().hits(), 1);
        assert_eq!(runner.cache().len(), 3);
    }
}
