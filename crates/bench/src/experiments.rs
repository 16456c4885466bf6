//! One experiment per figure/table of the paper (see DESIGN.md's
//! experiment index). Each returns [`Table`]s that the `repro` binary
//! prints and dumps as CSV.

use crate::table::{ratio, secs, Table};
use crate::{run_canonical, sort_canonical, worst_case, ExpScale, JobFiles};
use demsort_core::baselines::nowsort;
use demsort_core::job::{run_in_process, sort_file};
use demsort_core::runform::ingest_input;
use demsort_types::wire::RankReport;
use demsort_types::{
    AlgoConfig, Element16, Phase, PhaseStats, Record, Record100, SortAlgo, SortConfig, SortReport,
};
use demsort_workloads::{generate_all, generate_pe_input, gensort_records, InputSpec};

/// Default cluster sizes of the scalability figures (`P = 1..64`).
pub const PAPER_PES: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

/// Phase-stacked running-time sweep (the shared shape of Figures 2, 4
/// and 6).
fn phase_sweep(
    title: &str,
    scale: &ExpScale,
    spec: InputSpec,
    algo: AlgoConfig,
    pes_list: &[usize],
) -> Table {
    let mut t = Table::new(
        title,
        &[
            "P",
            "run_formation_s",
            "selection_s",
            "alltoall_s",
            "final_merge_s",
            "host_wall_s",
            "total_s",
        ],
    );
    for &p in pes_list {
        let (report, _) = run_canonical(scale, p, spec, algo.clone());
        let model = scale.cost_model(algo.overlap);
        let phases = model.cluster_phases(&report);
        let get = |ph: Phase| phases.get(&ph).map(|t| t.wall_s).unwrap_or(0.0);
        let total: f64 = phases.values().map(|t| t.wall_s).sum();
        // Measured host wall of this (unscaled) run — a phase ends when
        // its slowest PE does, so take the per-phase max over PEs. A
        // sanity signal next to the modeled paper-scale columns.
        let wall_ns: u64 =
            Phase::ALL.iter().map(|&ph| report.phase_max(ph, |s| s.cpu.host_wall_ns)).sum();
        t.row(vec![
            p.to_string(),
            secs(get(Phase::RunFormation)),
            secs(get(Phase::MultiwaySelection)),
            secs(get(Phase::AllToAll)),
            secs(get(Phase::FinalMerge)),
            secs(wall_ns as f64 / 1e9),
            secs(total),
        ]);
    }
    t
}

/// Figure 2: running times for random input, split by phase, P = 1..64,
/// 100 GiB/PE (scaled).
pub fn fig2(scale: &ExpScale, pes_list: &[usize]) -> Table {
    phase_sweep(
        "Figure 2 — random input, randomized run formation (modeled seconds at paper scale)",
        scale,
        InputSpec::Uniform,
        AlgoConfig::default(),
        pes_list,
    )
}

/// Figure 4: worst-case input *with* randomization.
pub fn fig4(scale: &ExpScale, pes_list: &[usize]) -> Table {
    phase_sweep(
        "Figure 4 — worst-case input with randomization",
        scale,
        worst_case(scale),
        AlgoConfig::default(),
        pes_list,
    )
}

/// Figure 6: worst-case input *without* randomization.
pub fn fig6(scale: &ExpScale, pes_list: &[usize]) -> Table {
    phase_sweep(
        "Figure 6 — worst-case input without randomization",
        scale,
        worst_case(scale),
        AlgoConfig { randomize: false, ..AlgoConfig::default() },
        pes_list,
    )
}

/// Figure 3: per-PE wall-clock and I/O time of every phase on a
/// 32-node run with random input.
pub fn fig3(scale: &ExpScale, pes: usize) -> Table {
    let (report, _) = run_canonical(scale, pes, InputSpec::Uniform, AlgoConfig::default());
    let model = scale.cost_model(true);
    let mut t = Table::new(
        &format!("Figure 3 — per-PE phase times, P = {pes}, random input"),
        &[
            "PE",
            "runform_wall_s",
            "runform_io_s",
            "selection_wall_s",
            "alltoall_wall_s",
            "merge_wall_s",
            "merge_io_s",
        ],
    );
    let rf = model.per_pe_times(&report, Phase::RunFormation);
    let sel = model.per_pe_times(&report, Phase::MultiwaySelection);
    let a2a = model.per_pe_times(&report, Phase::AllToAll);
    let fm = model.per_pe_times(&report, Phase::FinalMerge);
    for pe in 0..pes {
        t.row(vec![
            pe.to_string(),
            secs(rf[pe].wall_s),
            secs(rf[pe].io_s),
            secs(sel[pe].wall_s),
            secs(a2a[pe].wall_s),
            secs(fm[pe].wall_s),
            secs(fm[pe].io_s),
        ]);
    }
    t
}

/// Figure 5: I/O volume of the all-to-all phase divided by N — pure
/// measurement, no cost model. Four curves: worst-case non-randomized,
/// worst-case randomized at B = 8 MiB and B = 2 MiB (scaled), and
/// random input.
pub fn fig5(scale: &ExpScale, pes_list: &[usize]) -> Table {
    let small = ExpScale { block_bytes: scale.block_bytes / 4, ..scale.clone() };
    fn a2a_over_n(s: &ExpScale, p: usize, spec: InputSpec, randomize: bool) -> f64 {
        let (report, _) =
            run_canonical(s, p, spec, AlgoConfig { randomize, ..AlgoConfig::default() });
        report.phase_total(Phase::AllToAll, |st| st.io.bytes_total()) as f64
            / report.total_bytes() as f64
    }
    let worst = worst_case(scale);
    let worst_small = worst_case(&small);
    let mut t = Table::new(
        "Figure 5 — all-to-all I/O volume ÷ N",
        &["P", "worst_nonrand", "worst_rand_B8", "worst_rand_B2", "random"],
    );
    for &p in pes_list {
        t.row(vec![
            p.to_string(),
            ratio(a2a_over_n(scale, p, worst, false)),
            ratio(a2a_over_n(scale, p, worst, true)),
            ratio(a2a_over_n(&small, p, worst_small, true)),
            ratio(a2a_over_n(scale, p, InputSpec::Uniform, true)),
        ]);
    }
    t
}

/// Run the canonical sort on SortBenchmark records (100 bytes, 10-byte
/// key).
pub fn run_canonical_r100(scale: &ExpScale, pes: usize, data_bytes_per_pe: usize) -> SortReport {
    let cfg = SortConfig::new(scale.machine(pes), AlgoConfig::default()).expect("valid");
    let n = pes * (data_bytes_per_pe / Record100::BYTES);
    sort_canonical(&cfg, &gensort_records(0x50FF_BEEF, 0, n)).0
}

/// Section VI's SortBenchmark results: our modeled runs next to the
/// published 2009 numbers the paper cites.
pub fn sortbench(scale: &ExpScale, pes: usize) -> Table {
    let mut t = Table::new(
        &format!("SortBenchmark (Section VI) — modeled at paper scale, P = {pes} nodes"),
        &["entry", "category", "nodes", "result", "source"],
    );

    // GraySort-style run: external (R > 1) 100-byte records.
    let gray = run_canonical_r100(scale, pes, scale.data_bytes_per_pe);
    let model = scale.cost_model(true);
    let wall = model.total_wall_s(&gray);
    let gbmin = model.throughput_bytes_per_sec(&gray) * 60.0 / 1e9;
    t.row(vec![
        "demsort (this run)".into(),
        "GraySort rate".into(),
        pes.to_string(),
        format!("{gbmin:.0} GB/min"),
        format!("measured x{:.0} cost model ({:.0}s wall)", scale.scale, wall),
    ]);
    t.row(vec![
        "DEMSort".into(),
        "Indy GraySort 2009".into(),
        "195".into(),
        "564 GB/min (100 TB in <3 h)".into(),
        "published".into(),
    ]);
    t.row(vec![
        "Yahoo Hadoop".into(),
        "GraySort 2009".into(),
        "3452".into(),
        "578 GB/min".into(),
        "published (17x nodes)".into(),
    ]);
    t.row(vec![
        "Google MapReduce".into(),
        "1 PB (informal)".into(),
        "~4000 (48000 disks)".into(),
        "6h02m ≈ 2763 GB/min".into(),
        "published (61x disks)".into(),
    ]);

    // MinuteSort-style run: internal case (N < M), modeled data per
    // minute. A 100-byte record does not pack a power-of-two block
    // fully, so size the run in records: 4/5 of the blocks memory can
    // hold.
    let rpb = scale.block_bytes / Record100::BYTES;
    let bpr = scale.mem_bytes_per_pe / scale.block_bytes;
    let minute_bytes = bpr * rpb * 4 / 5 * Record100::BYTES;
    let minute = run_canonical_r100(scale, pes, minute_bytes);
    assert_eq!(minute.runs, 1, "MinuteSort case must be internal");
    let mwall = model.total_wall_s(&minute);
    let paper_bytes = minute.total_bytes() as f64 * scale.scale;
    let per_minute_gb = paper_bytes / mwall * 60.0 / 1e9;
    t.row(vec![
        "demsort (this run)".into(),
        "MinuteSort rate".into(),
        pes.to_string(),
        format!("{per_minute_gb:.0} GB/min (internal, R = 1)"),
        format!("measured x{:.0} cost model ({mwall:.1}s wall)", scale.scale),
    ]);
    t.row(vec![
        "DEMSort".into(),
        "Indy MinuteSort 2009".into(),
        "195".into(),
        "955 GB in 60 s".into(),
        "published (3.6x TokuSampleSort)".into(),
    ]);
    t.row(vec![
        "Yahoo Hadoop".into(),
        "MinuteSort 2009".into(),
        "1406".into(),
        "~500 GB in 60 s".into(),
        "published (7x larger machine)".into(),
    ]);
    t
}

/// Section IV-A's selection over the sample spacing `K`: the sample
/// brackets every split to a window of fewer than `2K + 2R(K−1)`
/// records, which the PEs read from their own disks and push to the
/// selecting PE.
pub fn ablate_selection(scale: &ExpScale, pes: usize) -> Table {
    let mut t = Table::new(
        "Ablation — multiway selection: sample spacing K (sums over PEs)",
        &["K", "window_records", "blocks_read", "pushed_KiB"],
    );
    for sample_every in [16usize, 64, 256] {
        let algo = AlgoConfig { sample_every, ..AlgoConfig::default() };
        let (_, per_pe) = run_canonical(scale, pes, InputSpec::Uniform, algo);
        let sum = |f: &dyn Fn(&demsort_core::extselect::SelectionStats) -> u64| -> u64 {
            per_pe.iter().map(|o| f(&o.selection)).sum()
        };
        t.row(vec![
            format!("every {sample_every}"),
            sum(&|s| s.window_records).to_string(),
            sum(&|s| s.blocks_read).to_string(),
            format!("{:.1}", sum(&|s| s.bytes_pushed) as f64 / 1024.0),
        ]);
    }
    t
}

/// Ablation of Section IV-E's overlapping: modeled phase times with
/// overlap on/off.
pub fn ablate_overlap(scale: &ExpScale, pes: usize) -> Table {
    let mut t = Table::new(
        "Ablation — I/O overlap (Section IV-E), random input",
        &["overlap", "run_formation_s", "total_s"],
    );
    for overlap in [true, false] {
        let algo = AlgoConfig { overlap, ..AlgoConfig::default() };
        let (report, _) = run_canonical(scale, pes, InputSpec::Uniform, algo);
        let model = scale.cost_model(overlap);
        let phases = model.cluster_phases(&report);
        let rf = phases.get(&Phase::RunFormation).map(|t| t.wall_s).unwrap_or(0.0);
        let total: f64 = phases.values().map(|t| t.wall_s).sum();
        t.row(vec![overlap.to_string(), secs(rf), secs(total)]);
    }
    t
}

/// Section III vs Section IV: I/O and communication volumes plus
/// modeled wall time for the globally striped and the canonical
/// algorithm.
pub fn striped_vs_canonical(scale: &ExpScale, pes_list: &[usize]) -> Table {
    let mut t = Table::new(
        "Striped (Sec. III) vs CANONICALMERGESORT (Sec. IV) — random input",
        &["P", "algo", "io_over_n", "comm_over_n", "wall_s"],
    );
    for &p in pes_list {
        // Canonical.
        let (report, _) = run_canonical(scale, p, InputSpec::Uniform, AlgoConfig::default());
        let model = scale.cost_model(true);
        t.row(vec![
            p.to_string(),
            "canonical".into(),
            ratio(report.io_volume_over_n()),
            ratio(report.comm_volume_over_n()),
            secs(model.total_wall_s(&report)),
        ]);
        // Striped.
        let report = run_striped_report(scale, p);
        t.row(vec![
            p.to_string(),
            "striped".into(),
            ratio(report.io_volume_over_n()),
            ratio(report.comm_volume_over_n()),
            secs(model.total_wall_s(&report)),
        ]);
    }
    t
}

/// Run the striped sort of the experiments' uniform input and collect
/// a single-phase report (totals).
pub fn run_striped_report(scale: &ExpScale, pes: usize) -> SortReport {
    let cfg = SortConfig::new(scale.machine(pes), AlgoConfig::default()).expect("valid config");
    let seed = 0xDE77_5047 ^ pes as u64;
    let files = JobFiles::new(&generate_all(InputSpec::Uniform, seed, pes, scale.elems_per_pe()));
    let sorted = sort_file::<Element16>(&cfg, SortAlgo::Striped, &files.input(), &files.output())
        .expect("striped");
    // Attribute run formation and merging together; the comparison
    // table uses totals only.
    let mut report = SortReport::new(pes, sorted.elements, sorted.element_bytes, sorted.runs);
    for pe in 0..pes {
        let totals = Phase::ALL
            .iter()
            .fold(PhaseStats::default(), |acc, &ph| acc.merge(&sorted.get(pe, ph)));
        report.record(pe, Phase::RunFormation, totals);
    }
    report
}

/// NOW-Sort baseline vs CANONICALMERGESORT on uniform and skewed
/// inputs: balance and modeled time (the Section II degradation).
pub fn baseline_skew(scale: &ExpScale, pes: usize) -> Table {
    let mut t = Table::new(
        "NOW-Sort baseline vs CANONICALMERGESORT — balance under skew",
        &["input", "algo", "max/avg_balance", "wall_s"],
    );
    for spec in [InputSpec::Uniform, InputSpec::SkewedToOne] {
        // Canonical: exact splitting keeps balance at 1 by construction.
        let (report, per_pe) = run_canonical(scale, pes, spec, AlgoConfig::default());
        let model = scale.cost_model(true);
        let sizes: Vec<u64> = per_pe.iter().map(|o| o.output.elems).collect();
        let avg = sizes.iter().sum::<u64>() as f64 / pes as f64;
        let imb = sizes.iter().copied().max().unwrap_or(0) as f64 / avg.max(1.0);
        t.row(vec![
            spec.label().into(),
            "canonical".into(),
            format!("{imb:.2}"),
            secs(model.total_wall_s(&report)),
        ]);
        // NOW-Sort.
        let (report, imbalance) = run_nowsort_report(scale, pes, spec);
        t.row(vec![
            spec.label().into(),
            "nowsort".into(),
            format!("{imbalance:.2}"),
            secs(scale.cost_model(true).total_wall_s(&report)),
        ]);
    }
    t
}

/// Run the NOW-Sort baseline and return (report, imbalance).
pub fn run_nowsort_report(scale: &ExpScale, pes: usize, spec: InputSpec) -> (SortReport, f64) {
    let cfg = SortConfig::new(scale.machine(pes), AlgoConfig::default()).expect("valid config");
    let local_n = scale.elems_per_pe();
    let (report, imbalances, _) = run_in_process(&cfg, Element16::BYTES, |c, storage| {
        let st = storage.pe(c.rank());
        let recs = generate_pe_input(spec, 0xDE77_5047 ^ pes as u64, c.rank(), pes, local_n);
        let input = ingest_input(st, &recs)?;
        let out = nowsort::<Element16>(&c, st, &cfg, input, 1)?;
        let (rank, elems) = (c.rank(), local_n as u64);
        Ok((RankReport { rank, elems, runs: 0, phases: out.phases, error: None }, out.imbalance))
    })
    .expect("nowsort");
    (report, imbalances.into_iter().fold(1.0, f64::max))
}

/// Future-work ablation: replacement-selection run formation (Knuth
/// 5.4.1) vs load-sort-store, across input orders. Fewer runs → larger
/// feasible block size (the paper's stated motivation).
pub fn ablate_runlength(scale: &ExpScale) -> Table {
    use demsort_core::replacement::runs_by_replacement;
    use demsort_types::Element16;

    let m = (scale.mem_bytes_per_pe / 16).max(1);
    let n = scale.elems_per_pe();
    let mut t = Table::new(
        "Ablation — run formation: replacement selection vs load-sort-store",
        &["input", "method", "runs", "avg_run_over_m"],
    );
    for spec in [InputSpec::Uniform, InputSpec::Sorted, InputSpec::ReverseSorted] {
        let input = generate_pe_input(spec, 77, 0, 1, n);
        let baseline = n.div_ceil(m);
        t.row(vec![
            spec.label().into(),
            "load-sort-store".into(),
            baseline.to_string(),
            format!("{:.2}", n as f64 / baseline as f64 / m as f64),
        ]);
        let runs = runs_by_replacement::<Element16>(&input, m);
        t.row(vec![
            spec.label().into(),
            "replacement".into(),
            runs.len().to_string(),
            format!("{:.2}", n as f64 / runs.len().max(1) as f64 / m as f64),
        ]);
    }
    t
}

/// Appendix A ablation: naive (consumption-order) prefetching vs the
/// duality-optimal schedule of \[13\], on striped, random, and clustered
/// block layouts.
pub fn ablate_prefetch(scale: &ExpScale) -> Table {
    use demsort_storage::{duality_issue_order, naive_issue_order, simulate_schedule, BlockId};
    use demsort_workloads::splitmix64;

    let disks = scale.disks_per_pe as u32;
    let blocks = 512usize;
    let make = |layout: &str| -> Vec<BlockId> {
        let mut next = vec![0u32; disks as usize];
        let mut alloc = |d: u32| {
            let s = next[d as usize];
            next[d as usize] += 1;
            BlockId::new(d, s)
        };
        match layout {
            "striped" => (0..blocks).map(|i| alloc(i as u32 % disks)).collect(),
            "random" => {
                (0..blocks).map(|i| alloc((splitmix64(i as u64) % disks as u64) as u32)).collect()
            }
            // Adversarial: long stretches on one disk.
            _ => {
                (0..blocks).map(|i| alloc((i / (blocks / disks as usize)) as u32 % disks)).collect()
            }
        }
    };
    let mut t = Table::new(
        "Ablation — prefetch schedules (Appendix A): parallel I/O steps",
        &["layout", "buffers", "naive_steps", "duality_steps", "lower_bound"],
    );
    for layout in ["striped", "random", "clustered"] {
        let seq = make(layout);
        let per_disk = (0..disks)
            .map(|d| seq.iter().filter(|b| b.disk == d).count() as u64)
            .max()
            .unwrap_or(0);
        for buffers in [disks as usize, 4 * disks as usize] {
            let naive = simulate_schedule(&seq, &naive_issue_order(&seq), buffers);
            let optimal = simulate_schedule(&seq, &duality_issue_order(&seq, buffers), buffers);
            t.row(vec![
                layout.into(),
                buffers.to_string(),
                naive.io_steps.to_string(),
                optimal.io_steps.to_string(),
                per_disk.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> ExpScale {
        ExpScale::smoke()
    }

    #[test]
    fn fig2_scales_mildly() {
        let t = fig2(&smoke(), &[1, 2, 4]);
        let s = t.render();
        assert!(s.contains("Figure 2"));
        // Shape: per-PE volume is fixed, so total time must stay within
        // a modest factor as P grows (the paper's "scalability is very
        // good").
        let totals: Vec<f64> = s
            .lines()
            .skip(3)
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert_eq!(totals.len(), 3);
        let max = totals.iter().cloned().fold(0.0, f64::max);
        let min = totals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 1.8, "weak scaling within factor: {totals:?}");
    }

    #[test]
    fn fig5_shows_randomization_and_block_size_effects() {
        let t = fig5(&smoke(), &[4]);
        let s = t.render();
        let row = s.lines().nth(3).expect("data row");
        let cells: Vec<f64> = row.split_whitespace().skip(1).map(|c| c.parse().unwrap()).collect();
        let (nonrand, rand_b8, rand_b2, random) = (cells[0], cells[1], cells[2], cells[3]);
        assert!(nonrand > rand_b8, "randomization cuts volume: {cells:?}");
        assert!(rand_b2 <= rand_b8 * 1.1, "smaller blocks help (or tie): {cells:?}");
        assert!(random < nonrand, "random input moves least vs worst: {cells:?}");
    }

    #[test]
    fn fig6_shows_worstcase_penalty_vs_fig4() {
        let s = smoke();
        let with = fig4(&s, &[4]);
        let without = fig6(&s, &[4]);
        let total = |t: &Table| -> f64 {
            t.render().lines().nth(3).unwrap().split_whitespace().last().unwrap().parse().unwrap()
        };
        assert!(
            total(&without) > total(&with),
            "non-randomized worst case must be slower: {} vs {}",
            total(&without),
            total(&with)
        );
    }

    #[test]
    fn sortbench_produces_positive_rates() {
        let t = sortbench(&smoke(), 4);
        let s = t.render();
        assert!(s.contains("GB/min"));
        assert!(s.contains("564 GB/min"), "published rows present");
    }

    #[test]
    fn ablations_and_baselines_run() {
        let s = smoke();
        let sel = ablate_selection(&s, 3).render();
        assert!(sel.contains("every 64"));
        let ovl = ablate_overlap(&s, 2).render();
        assert!(ovl.contains("true") && ovl.contains("false"));
        let svc = striped_vs_canonical(&s, &[2]).render();
        assert!(svc.contains("striped") && svc.contains("canonical"));
        let skew = baseline_skew(&s, 4).render();
        assert!(skew.contains("nowsort"));
    }

    #[test]
    fn runlength_ablation_shows_longer_runs() {
        let t = ablate_runlength(&smoke()).render();
        // Replacement selection on uniform input: avg run ≈ 2m.
        let repl_row = t
            .lines()
            .find(|l| l.contains("uniform") && l.contains("replacement"))
            .expect("row present");
        let avg: f64 = repl_row.split_whitespace().last().unwrap().parse().unwrap();
        assert!(avg > 1.5, "replacement runs should approach 2m: {avg}");
    }

    #[test]
    fn prefetch_ablation_duality_never_worse() {
        let t = ablate_prefetch(&smoke()).render();
        for line in t.lines().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            if cells.len() == 5 {
                let naive: u64 = cells[2].parse().unwrap();
                let duality: u64 = cells[3].parse().unwrap();
                assert!(duality <= naive, "duality must not lose: {line}");
            }
        }
    }
}
