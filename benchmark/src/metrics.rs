//! The metric registry: every name the benchmark prints, with unit,
//! direction and (for end-to-end metrics) regression bound. The
//! `registry_equals_benchmark_json` test pins this table to
//! `BENCHMARK.json`, so the two cannot drift.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which an end-to-end metric may
    /// worsen before it counts as a regression; `None` for per-layer
    /// metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the sorter sees, per workload, measured untraced.
///
/// The bounds on the two timed metrics are the contract's maximum: on
/// the 2-core reference host the medians of whole runs of the TCP
/// workloads scatter by 8–14 % (quartile distance over median, ten
/// seeds), the same seed repeated as much as different seeds, and
/// longer runs do not narrow it. The counts repeat exactly.
pub const END_TO_END: &[Metric] = &[
    e2e("sort_mb_s", "MB/s", Higher, 0.25),
    e2e("user_cpu_s_per_gb", "s/GB", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
    e2e("io_volume_over_n", "N", Lower, 0.02),
    e2e("comm_volume_over_n", "N", Lower, 0.02),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers (the crates), the host they run on, and the traced
/// rep's phase table and counts.
pub const PER_LAYER: &[Metric] = &[
    layer("host.nproc", "count", Higher),
    layer("host.memcpy_mb_s", "MB/s", Higher),
    layer("host.first_touch_mb_s", "MB/s", Higher),
    layer("host.sort_unstable_mrec_s", "Mrec/s", Higher),
    layer("host.build_s", "s", Lower),
    layer("host.sys_cpu_s_per_gb", "s/GB", Lower),
    layer("roof.vs_memcpy", "ratio", Higher),
    layer("roof.vs_sort_unstable", "ratio", Higher),
    layer("types.record.encode_mb_s", "MB/s", Higher),
    layer("types.record.decode_mb_s", "MB/s", Higher),
    layer("types.buf.get_put_mops", "Mops/s", Higher),
    layer("storage.mem.write_mb_s", "MB/s", Higher),
    layer("storage.mem.read_mb_s", "MB/s", Higher),
    layer("storage.file.write_mb_s", "MB/s", Higher),
    layer("storage.file.read_mb_s", "MB/s", Higher),
    layer("storage.engine.write_mb_s", "MB/s", Higher),
    layer("storage.engine.read_mb_s", "MB/s", Higher),
    layer("storage.engine.small_ops_s", "1/s", Higher),
    layer("storage.run.write_mb_s", "MB/s", Higher),
    layer("storage.run.read_mb_s", "MB/s", Higher),
    layer("storage.prefetch.read_mb_s", "MB/s", Higher),
    layer("net.local.stream_mb_s", "MB/s", Higher),
    layer("net.local.pingpong_us", "us", Lower),
    layer("net.local.alltoallv_mb_s", "MB/s", Higher),
    layer("net.tcp.stream_mb_s", "MB/s", Higher),
    layer("net.tcp.pingpong_us", "us", Lower),
    layer("net.tcp.alltoallv_mb_s", "MB/s", Higher),
    layer("net.tcp.allgather_u64_us", "us", Lower),
    layer("net.tcp.mesh_connect_ms", "ms", Lower),
    layer("net.tcp.fetch_mb_s", "MB/s", Higher),
    layer("net.tcp.store_mb_s", "MB/s", Higher),
    layer("net.tcp.fetch_small_ops_s", "1/s", Higher),
    layer("core.seqsort.c1_mrec_s", "Mrec/s", Higher),
    layer("core.seqsort.c2_mrec_s", "Mrec/s", Higher),
    layer("core.merge.k4_mrec_s", "Mrec/s", Higher),
    layer("core.merge.k16_mrec_s", "Mrec/s", Higher),
    layer("core.merge.k128_mrec_s", "Mrec/s", Higher),
    layer("core.merge.par2_k16_mrec_s", "Mrec/s", Higher),
    layer("core.selection.k128_us", "us", Lower),
    layer("core.recio.write_mrec_s", "Mrec/s", Higher),
    layer("core.recio.read_mrec_s", "Mrec/s", Higher),
    layer("core.psort.p2_mrec_s", "Mrec/s", Higher),
    layer("phase.launch_ingest_s", "s", Lower),
    layer("phase.run_formation_s", "s", Lower),
    layer("phase.multiway_selection_s", "s", Lower),
    layer("phase.all_to_all_s", "s", Lower),
    layer("phase.final_merge_s", "s", Lower),
    layer("phase.output_s", "s", Lower),
    layer("phase.collective_s", "s", Lower),
    layer("phase.unattributed_s", "s", Lower),
    layer("runs", "count", Lower),
    layer("pool.hits", "count", Higher),
    layer("pool.misses", "count", Lower),
    layer("pool.copied_bytes_over_n", "N", Lower),
    layer("blocksvc.remote_blocks", "count", Lower),
    layer("blocksvc.local_blocks", "count", Higher),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// Look a metric up in either table.
#[cfg(test)]
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::WORKLOADS;
    use demsort_types::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_printed_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name));
        for name in names {
            assert!(is_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let unit_ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok));
        }
    }

    /// `(name, unit, better, bound)` rows of one BENCHMARK.json list.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"), m.get("bound").and_then(Json::as_f64))
            })
            .collect()
    }

    fn registered(table: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
        table
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into(), m.bound))
            .collect()
    }

    #[test]
    fn registry_equals_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), registered(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), registered(PER_LAYER));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(workloads, ours);
        assert!(ours.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }
}
