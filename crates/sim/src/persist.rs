//! Binary codecs that let simulation results live in a [`neummu_store`] slot.
//!
//! The vendored `serde` stand-in can serialize but not deserialize, so the
//! persistent point store needs an explicit, versioned binary format. The
//! codecs here are plain functions (not trait impls — both the types and any
//! candidate trait are foreign to this pairing) that write every field in
//! declaration order through [`neummu_store::ByteWriter`] and read them back
//! symmetrically through [`neummu_store::ByteReader`], with
//! [`ByteReader::finish`] rejecting trailing bytes so a schema drift between
//! writer and reader can never be silently absorbed.
//!
//! Versioning is carried by the store *key namespace*, not by the payload:
//! keys are minted under [`POINT_NAMESPACE`], and any change to the encoded
//! layout must bump the namespace so old slots become key-mismatch misses
//! (recomputed, never misread).
//!
//! [`ByteReader::finish`]: neummu_store::ByteReader::finish

use neummu_npu::TensorKind;
use neummu_store::{ByteReader, ByteWriter, CodecError};
use neummu_vmem::Asid;

use crate::dense::{LayerResult, TranslationTrace, WorkloadResult};
use crate::multi_tenant::TenantStats;

/// Key namespace of the memoized points ([`crate::runner::PointCache`]):
/// dense [`WorkloadResult`]s and isolated [`TenantStats`] baselines. Bump the
/// `v` on any codec change.
pub const POINT_NAMESPACE: &str = "point/v2";

fn put_tensor_kind(writer: &mut ByteWriter, kind: TensorKind) {
    writer.u8(match kind {
        TensorKind::InputActivation => 0,
        TensorKind::Weight => 1,
        TensorKind::OutputActivation => 2,
    });
}

fn take_tensor_kind(reader: &mut ByteReader<'_>) -> Result<TensorKind, CodecError> {
    match reader.u8()? {
        0 => Ok(TensorKind::InputActivation),
        1 => Ok(TensorKind::Weight),
        2 => Ok(TensorKind::OutputActivation),
        _ => Err(CodecError::Invalid("unknown TensorKind tag")),
    }
}

fn put_translation_stats(writer: &mut ByteWriter, stats: &neummu_mmu::TranslationStats) {
    writer.u64(stats.requests);
    writer.u64(stats.tlb_hits);
    writer.u64(stats.tlb_misses);
    writer.u64(stats.merged);
    writer.u64(stats.walks);
    writer.u64(stats.walk_memory_accesses);
    writer.u64(stats.tlb_fills);
    writer.u64(stats.prmb_reads);
    writer.u64(stats.tpreg_skipped_levels);
    writer.u64(stats.tpreg_l4_hits);
    writer.u64(stats.tpreg_l3_hits);
    writer.u64(stats.tpreg_l2_hits);
    writer.u64(stats.tpreg_lookups);
    writer.u64(stats.structural_stalls);
    writer.u64(stats.stall_cycles);
    writer.u64(stats.faults);
    writer.u64(stats.last_completion_cycle);
}

fn take_translation_stats(
    reader: &mut ByteReader<'_>,
) -> Result<neummu_mmu::TranslationStats, CodecError> {
    Ok(neummu_mmu::TranslationStats {
        requests: reader.u64()?,
        tlb_hits: reader.u64()?,
        tlb_misses: reader.u64()?,
        merged: reader.u64()?,
        walks: reader.u64()?,
        walk_memory_accesses: reader.u64()?,
        tlb_fills: reader.u64()?,
        prmb_reads: reader.u64()?,
        tpreg_skipped_levels: reader.u64()?,
        tpreg_l4_hits: reader.u64()?,
        tpreg_l3_hits: reader.u64()?,
        tpreg_l2_hits: reader.u64()?,
        tpreg_lookups: reader.u64()?,
        structural_stalls: reader.u64()?,
        stall_cycles: reader.u64()?,
        faults: reader.u64()?,
        last_completion_cycle: reader.u64()?,
    })
}

fn put_layer_result(writer: &mut ByteWriter, layer: &LayerResult) {
    writer.str(&layer.layer_name);
    writer.u64(layer.step_cycles);
    writer.u64(layer.repeats);
    writer.u64(layer.total_cycles);
    writer.u64(layer.compute_cycles);
    writer.u64(layer.memory_cycles);
    writer.u64(layer.tile_count);
    writer.u64(layer.translation_requests);
    writer.u64(layer.max_pages_per_tile);
    writer.f64(layer.avg_pages_per_tile);
}

fn take_layer_result(reader: &mut ByteReader<'_>) -> Result<LayerResult, CodecError> {
    Ok(LayerResult {
        layer_name: reader.str()?,
        step_cycles: reader.u64()?,
        repeats: reader.u64()?,
        total_cycles: reader.u64()?,
        compute_cycles: reader.u64()?,
        memory_cycles: reader.u64()?,
        tile_count: reader.u64()?,
        translation_requests: reader.u64()?,
        max_pages_per_tile: reader.u64()?,
        avg_pages_per_tile: reader.f64()?,
    })
}

fn put_trace(writer: &mut ByteWriter, trace: &TranslationTrace) {
    writer.u64(trace.window_cycles);
    writer.u64(trace.counts.len() as u64);
    for &count in &trace.counts {
        writer.u64(count);
    }
    writer.u64(trace.tile_va_windows.len() as u64);
    for &(tile, kind, start, end) in &trace.tile_va_windows {
        writer.u64(tile);
        put_tensor_kind(writer, kind);
        writer.u64(start);
        writer.u64(end);
    }
    writer.bool(trace.windows_truncated);
}

fn take_len(reader: &mut ByteReader<'_>) -> Result<usize, CodecError> {
    let len = reader.u64()?;
    // Each element needs at least one byte; anything longer than the
    // remaining input is structurally impossible, not merely truncated.
    if len > reader.remaining() as u64 {
        return Err(CodecError::Invalid("length prefix exceeds input"));
    }
    Ok(len as usize)
}

fn take_trace(reader: &mut ByteReader<'_>) -> Result<TranslationTrace, CodecError> {
    let window_cycles = reader.u64()?;
    let count_len = take_len(reader)?;
    let mut counts = Vec::with_capacity(count_len);
    for _ in 0..count_len {
        counts.push(reader.u64()?);
    }
    let window_len = take_len(reader)?;
    let mut tile_va_windows = Vec::with_capacity(window_len);
    for _ in 0..window_len {
        let tile = reader.u64()?;
        let kind = take_tensor_kind(reader)?;
        let start = reader.u64()?;
        let end = reader.u64()?;
        tile_va_windows.push((tile, kind, start, end));
    }
    let windows_truncated = reader.bool()?;
    Ok(TranslationTrace {
        window_cycles,
        counts,
        tile_va_windows,
        windows_truncated,
    })
}

/// Encodes a [`WorkloadResult`] (layers, translation stats and optional
/// traces included) into the store payload format.
#[must_use]
pub fn encode_workload_result(result: &WorkloadResult) -> Vec<u8> {
    let mut writer = ByteWriter::new();
    writer.u64(result.total_cycles);
    writer.u64(result.layers.len() as u64);
    for layer in &result.layers {
        put_layer_result(&mut writer, layer);
    }
    put_translation_stats(&mut writer, &result.translation);
    writer.f64(result.translation_energy_nj);
    writer.bool(result.trace.is_some());
    if let Some(trace) = &result.trace {
        put_trace(&mut writer, trace);
    }
    writer.into_bytes()
}

/// Decodes a payload produced by [`encode_workload_result`].
///
/// # Errors
///
/// [`CodecError`] if the payload is truncated, carries an unknown tag, or
/// has trailing bytes (a writer/reader schema mismatch).
pub fn decode_workload_result(payload: &[u8]) -> Result<WorkloadResult, CodecError> {
    let mut reader = ByteReader::new(payload);
    let total_cycles = reader.u64()?;
    let layer_len = take_len(&mut reader)?;
    let mut layers = Vec::with_capacity(layer_len);
    for _ in 0..layer_len {
        layers.push(take_layer_result(&mut reader)?);
    }
    let translation = take_translation_stats(&mut reader)?;
    let translation_energy_nj = reader.f64()?;
    let trace = if reader.bool()? {
        Some(take_trace(&mut reader)?)
    } else {
        None
    };
    reader.finish()?;
    Ok(WorkloadResult {
        total_cycles,
        layers,
        translation,
        translation_energy_nj,
        trace,
    })
}

/// Encodes the per-tenant baseline table persisted for multi-tenant isolation
/// experiments.
#[must_use]
pub fn encode_tenant_stats(stats: &[TenantStats]) -> Vec<u8> {
    let mut writer = ByteWriter::new();
    writer.u64(stats.len() as u64);
    for tenant in stats {
        writer.u16(tenant.asid.raw());
        writer.u64(tenant.requests);
        writer.u64(tenant.tlb_hits);
        writer.u64(tenant.merged);
        writer.u64(tenant.walks);
        writer.u64(tenant.walk_levels_read);
        writer.u64(tenant.faults);
        writer.u64(tenant.stall_cycles);
        writer.u64(tenant.completion_cycle);
        writer.u64(tenant.final_tlb_occupancy);
    }
    writer.into_bytes()
}

/// Decodes a payload produced by [`encode_tenant_stats`].
///
/// # Errors
///
/// [`CodecError`] on truncated input or trailing bytes.
pub fn decode_tenant_stats(payload: &[u8]) -> Result<Vec<TenantStats>, CodecError> {
    let mut reader = ByteReader::new(payload);
    let len = take_len(&mut reader)?;
    let mut stats = Vec::with_capacity(len);
    for _ in 0..len {
        stats.push(TenantStats {
            asid: Asid::new(reader.u16()?),
            requests: reader.u64()?,
            tlb_hits: reader.u64()?,
            merged: reader.u64()?,
            walks: reader.u64()?,
            walk_levels_read: reader.u64()?,
            faults: reader.u64()?,
            stall_cycles: reader.u64()?,
            completion_cycle: reader.u64()?,
            final_tlb_occupancy: reader.u64()?,
        });
    }
    reader.finish()?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{DenseSimConfig, DenseSimulator};

    fn sample_result(with_trace: bool) -> WorkloadResult {
        let workload = neummu_workloads::DenseWorkload::new(neummu_workloads::WorkloadId::Rnn1);
        let mut config = DenseSimConfig::with_mmu(neummu_mmu::MmuConfig::neummu());
        if with_trace {
            config = config.with_traces();
        }
        let result = DenseSimulator::new(config)
            .simulate_workload(&workload.layers(1))
            .expect("dense run");
        // Nonzero, so a codec that dropped either field would fail the
        // round trip.
        assert!(result.translation.tlb_fills > 0);
        assert!(result.translation.prmb_reads > 0);
        result
    }

    #[test]
    fn workload_result_roundtrips_without_trace() {
        let result = sample_result(false);
        let decoded = decode_workload_result(&encode_workload_result(&result)).unwrap();
        assert_eq!(decoded, result);
    }

    #[test]
    fn workload_result_roundtrips_with_trace() {
        let result = sample_result(true);
        assert!(result.trace.is_some(), "trace recording must be on");
        let decoded = decode_workload_result(&encode_workload_result(&result)).unwrap();
        assert_eq!(decoded, result);
    }

    #[test]
    fn truncated_and_padded_payloads_are_rejected() {
        let bytes = encode_workload_result(&sample_result(false));
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_workload_result(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(matches!(
            decode_workload_result(&padded),
            Err(CodecError::TrailingBytes)
        ));
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocating() {
        // A payload claiming u64::MAX layers must fail fast on the length
        // check, not attempt a giant reservation.
        let mut writer = ByteWriter::new();
        writer.u64(123); // total_cycles
        writer.u64(u64::MAX); // layer count
        assert!(matches!(
            decode_workload_result(&writer.into_bytes()),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn tenant_stats_roundtrip() {
        let stats = vec![
            TenantStats {
                asid: Asid::new(1),
                requests: 10,
                tlb_hits: 7,
                merged: 1,
                walks: 2,
                walk_levels_read: 8,
                faults: 0,
                stall_cycles: 5,
                completion_cycle: 999,
                final_tlb_occupancy: 12,
            },
            TenantStats {
                asid: Asid::new(2),
                requests: 3,
                tlb_hits: 0,
                merged: 0,
                walks: 3,
                walk_levels_read: 12,
                faults: 1,
                stall_cycles: 44,
                completion_cycle: 1234,
                final_tlb_occupancy: 1,
            },
        ];
        let decoded = decode_tenant_stats(&encode_tenant_stats(&stats)).unwrap();
        assert_eq!(decoded, stats);
    }

    #[test]
    fn tensor_kind_tags_are_exhaustive_and_stable() {
        for kind in [
            TensorKind::InputActivation,
            TensorKind::Weight,
            TensorKind::OutputActivation,
        ] {
            let mut writer = ByteWriter::new();
            put_tensor_kind(&mut writer, kind);
            let bytes = writer.into_bytes();
            let mut reader = ByteReader::new(&bytes);
            assert_eq!(take_tensor_kind(&mut reader).unwrap(), kind);
            reader.finish().unwrap();
        }
        let mut reader = ByteReader::new(&[9]);
        assert!(take_tensor_kind(&mut reader).is_err());
    }
}
