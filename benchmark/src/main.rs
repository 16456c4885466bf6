//! The DEMSort benchmark harness. See `benchmark/README.md`.
//!
//! ```text
//! demsort-benchmark --seed S [--seconds T] [--smoke | --aa]
//!     every workload end to end, the layer ladder, one traced rep
//!     per workload; prints every metric by name
//! demsort-benchmark --workload W --seed S --seconds T --trace 0|1
//!     one workload; the last stdout line is the result as JSON
//!     (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)
//! ```

mod host;
mod jobs;
mod layers;
mod metrics;
mod phases;
mod spans;
mod stats;

use demsort_core::validate::Fingerprint;
use demsort_types::json::Json;
use jobs::{Effort, EndToEnd, JobEnv, Workload, RECORDS, SMOKE_RECORDS, WORKLOADS};
use layers::Budget;
use metrics::{Better, Metric, END_TO_END, PER_LAYER};
use spans::Spans;
use stats::{median, quartile_spread, summarize};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: demsort-benchmark --seed S [--seconds T] [--smoke | --aa]\n       \
                     demsort-benchmark --workload W --seed S --seconds T --trace 0|1";

/// Seconds of timed reps per workload when `--seconds` is not given;
/// equals `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        aa: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ");
                a.workload = Some(
                    jobs::workload(&name)
                        .ok_or_else(|| format!("unknown workload {name} (known: {})", known()))?,
                );
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--aa" => a.aa = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if a.workload.is_some() && (a.smoke || a.aa) {
        return Err("--smoke and --aa apply to the full run, not to --workload".into());
    }
    Ok(a)
}

/// `--traced-local WORKLOAD INPUT OUTPUT TRACE_DIR`: the child the
/// harness spawns for the traced rep of a local workload.
fn traced_local_child() -> Option<Result<ExitCode, String>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [flag, name, input, output, trace_dir] = args.as_slice() else { return None };
    (flag == "--traced-local").then(|| {
        let w = jobs::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
        phases::traced_local_job(w, Path::new(input), Path::new(output), Path::new(trace_dir))?;
        Ok(ExitCode::SUCCESS)
    })
}

fn main() -> ExitCode {
    let outcome = traced_local_child().unwrap_or_else(|| parse_args().and_then(|args| run(&args)));
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("demsort-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

/// The run's scratch directory (inputs, outputs, journals, file-backend
/// disks) on the ordinary filesystem under `benchmark/out/`; removed on
/// every exit path.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Session {
    out_dir: PathBuf,
    scratch: Scratch,
    bins: PathBuf,
    build_s: f64,
    spans: Spans,
    host: Json,
}

impl Session {
    fn start() -> Result<Session, String> {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let scratch = Scratch(out_dir.join(format!("scratch-{}", std::process::id())));
        std::fs::create_dir_all(&scratch.0)
            .map_err(|e| format!("create {}: {e}", scratch.0.display()))?;
        let mut spans = Spans::new();
        let (bins, build_s) = spans.scope("build", "", |_| jobs::build_bins())?;
        let host = host::host_block(&jobs::repo_root(), &scratch.0);
        Ok(Session { out_dir, scratch, bins, build_s, spans, host })
    }

    fn write(&self, file: &str, doc: &Json) {
        let path = self.out_dir.join(file);
        if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
            eprintln!("demsort-benchmark: cannot write {}: {e}", path.display());
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let mut s = Session::start()?;
    let code = match args.workload {
        Some(w) => contract_run(&mut s, w, args)?,
        None if args.aa => aa_run(&mut s, args)?,
        None => full_run(&mut s, args)?,
    };
    s.write("host.json", &s.host);
    s.write("spans.json", &s.spans.to_json());
    Ok(code)
}

// -------------------------------------------------------------------
// Measuring one workload
// -------------------------------------------------------------------

use layers::Series;

fn lookup<'a>(series: &'a [(String, Vec<f64>)], name: &str) -> &'a [f64] {
    series.iter().find(|(n, _)| n == name).map_or(&[], |(_, v)| v.as_slice())
}

fn end_to_end_series(e2e: &EndToEnd) -> Series {
    END_TO_END.iter().map(|m| (m.name.to_string(), e2e.samples(m.name))).collect()
}

fn measure(
    s: &mut Session,
    w: &Workload,
    seed: u64,
    effort: Effort,
) -> Result<(EndToEnd, Fingerprint), String> {
    jobs::measure_end_to_end(w, seed, effort, &s.bins, &s.scratch.0, &mut s.spans)
}

/// One extra rep with tracing on, turned into the per-workload part of
/// the per-layer metrics: the phase table, the journal counts and the
/// tracing overhead. Returns the series and the rep's failure, if any.
fn traced_series(
    s: &mut Session,
    w: &Workload,
    e2e: &EndToEnd,
    fingerprint: Fingerprint,
) -> Result<(Series, Option<String>), String> {
    let input = jobs::input_path(&s.scratch.0);
    let env = JobEnv { bins: &s.bins, scratch: &s.scratch.0, input: &input, fingerprint };
    let dir = s.scratch.0.join("trace");
    let _ = std::fs::remove_dir_all(&dir);
    let rep = s.spans.scope("traced_rep", w.name, |_| env.run(w, Some(&dir)));
    let journals = phases::load_journals(&dir, rep.spawned_at)?;
    let table = phases::phase_table(rep.wall_s, &journals);
    let counts = phases::journal_counts(&journals);

    let one = |v: f64| vec![v];
    let mut out: Series =
        phases::phase_metrics(&table).into_iter().map(|(n, v)| (n, one(v))).collect();
    out.push(("runs".into(), one(rep.done.map_or(0, |d| d.runs) as f64)));
    out.push(("pool.hits".into(), one(counts.pool.hits as f64)));
    out.push(("pool.misses".into(), one(counts.pool.misses as f64)));
    let copied_over_n = counts.pool.copied_bytes as f64 / e2e.input_bytes as f64;
    out.push(("pool.copied_bytes_over_n".into(), one(copied_over_n)));
    out.push(("blocksvc.remote_blocks".into(), one(counts.remote_blocks as f64)));
    out.push(("blocksvc.local_blocks".into(), one(counts.local_blocks as f64)));
    out.push(("trace.overhead_frac".into(), one(rep.wall_s / e2e.wall_median() - 1.0)));
    out.push(("host.sys_cpu_s_per_gb".into(), e2e.samples("host.sys_cpu_s_per_gb")));
    Ok((out, rep.failure))
}

/// Rooflines: the sort's rate over what the same host does with a plain
/// memcpy, and over nproc threads of sort_unstable (`ladder`'s rates).
fn roofline_series(e2e: &EndToEnd, ladder: &[(String, Vec<f64>)]) -> Series {
    let sort_mb_s = median(&e2e.samples("sort_mb_s"));
    let memcpy = median(lookup(ladder, "host.memcpy_mb_s"));
    let sort_unstable = median(lookup(ladder, "host.sort_unstable_mrec_s"));
    let mrec_s = sort_mb_s / 100.0;
    vec![
        ("roof.vs_memcpy".into(), vec![sort_mb_s / memcpy]),
        ("roof.vs_sort_unstable".into(), vec![mrec_s / (sort_unstable * host::nproc() as f64)]),
    ]
}

fn ladder_series(s: &mut Session, budget: Budget, seed: u64) -> Series {
    let mut out = layers::run_ladder(budget, seed, &s.scratch.0, &mut s.spans);
    out.push(("host.nproc".into(), vec![host::nproc() as f64]));
    out.push(("host.build_s".into(), vec![s.build_s]));
    out
}

// -------------------------------------------------------------------
// The contract run: one workload, JSON on the last line
// -------------------------------------------------------------------

fn contract_run(s: &mut Session, w: &Workload, args: &Args) -> Result<ExitCode, String> {
    let (table, series, attempted, failures) = if args.trace {
        // --seconds goes to the ladder; a warm-up and five untraced
        // reps right before the traced one anchor the tracing overhead
        // and the rooflines.
        let mut series = ladder_series(s, Budget::spread_over(args.seconds, 3), args.seed);
        let effort = Effort { records: RECORDS, setups: 1, seconds: 0.0, min_reps: 5 };
        let (e2e, fingerprint) = measure(s, w, args.seed, effort)?;
        let (traced, failure) = traced_series(s, w, &e2e, fingerprint)?;
        series.extend(roofline_series(&e2e, &series));
        series.extend(traced);
        let mut failures = e2e.failures;
        failures.extend(failure);
        (PER_LAYER, series, e2e.attempted + 1, failures)
    } else {
        let (e2e, _) = measure(s, w, args.seed, full_effort(args))?;
        (END_TO_END, end_to_end_series(&e2e), e2e.attempted, e2e.failures)
    };
    for why in &failures {
        eprintln!("demsort-benchmark: {}: failed rep: {why}", w.name);
    }
    eprintln!("host: {}", s.host);

    let mut fields = Vec::with_capacity(table.len());
    for m in table {
        let samples = lookup(&series, m.name);
        if samples.is_empty() {
            return Err(format!("{}: no sample of {} (failures: {failures:?})", w.name, m.name));
        }
        let value = Json::Obj(vec![
            ("value".into(), Json::Num(median(samples))),
            ("unit".into(), Json::str(m.unit)),
        ]);
        fields.push((m.name.to_string(), value));
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(failures.is_empty())),
        ("attempted".into(), Json::Uint(attempted as u64)),
        ("failed".into(), Json::Uint(failures.len() as u64)),
        ("metrics".into(), Json::Obj(fields)),
    ]);
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

// -------------------------------------------------------------------
// The full run: every workload, every metric, by name
// -------------------------------------------------------------------

fn full_effort(args: &Args) -> Effort {
    if args.smoke {
        Effort { records: SMOKE_RECORDS, setups: 1, seconds: 0.0, min_reps: 1 }
    } else {
        Effort { records: RECORDS, setups: 3, seconds: args.seconds, min_reps: 5 }
    }
}

fn print_section(
    title: &str,
    table: &[Metric],
    series: &[(String, Vec<f64>)],
    report: &mut Vec<Json>,
) {
    println!("\n== {title} ==");
    println!(
        "{:<30} {:>8} {:>14} {:>14} {:>14} {:>4} {:>8}  better  bound",
        "metric", "unit", "median", "min", "max", "n", "iqr/med"
    );
    for m in table {
        let samples = lookup(series, m.name);
        if samples.is_empty() {
            continue;
        }
        let sum = summarize(samples);
        let spread = quartile_spread(samples);
        println!(
            "{:<30} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>4} {:>8}  {:<6}  {}",
            m.name,
            m.unit,
            sum.median,
            sum.min,
            sum.max,
            sum.n,
            spread.map_or("-".into(), |s| format!("{s:.4}")),
            m.better.as_str(),
            m.bound.map_or("-".into(), |b| format!("{b}")),
        );
        report.push(Json::Obj(vec![
            ("section".into(), Json::str(title)),
            ("name".into(), Json::str(m.name)),
            ("unit".into(), Json::str(m.unit)),
            ("median".into(), Json::Num(sum.median)),
            ("min".into(), Json::Num(sum.min)),
            ("max".into(), Json::Num(sum.max)),
            ("n".into(), Json::Uint(sum.n as u64)),
        ]));
    }
}

fn full_run(s: &mut Session, args: &Args) -> Result<ExitCode, String> {
    let effort = full_effort(args);
    println!("== host ==");
    let Json::Obj(fields) = &s.host else { unreachable!("host block is an object") };
    for (k, v) in fields {
        println!("{k:<16} {v}");
    }
    println!(
        "records per input {}, seed {}, {} set-ups, timed reps for {} s (at least {})",
        effort.records, args.seed, effort.setups, effort.seconds, effort.min_reps
    );

    // Workloads first, the ladder after: a job's `peak_rss_mb` cannot
    // read lower than what the harness itself holds when it spawns the
    // job, and the ladder's buffers linger in the allocator.
    let mut measured = Vec::new();
    for w in &WORKLOADS {
        let (e2e, fingerprint) = measure(s, w, args.seed, effort)?;
        let (traced, traced_failure) = traced_series(s, w, &e2e, fingerprint)?;
        measured.push((w, e2e, traced, traced_failure));
    }
    let budget = if args.smoke {
        Budget { samples: 1, sample_s: 0.01 }
    } else {
        Budget { samples: 5, sample_s: 1.0 }
    };
    let ladder = ladder_series(s, budget, args.seed);

    let mut report = Vec::new();
    let mut failed = 0;
    let mut printed = std::collections::BTreeSet::new();
    for (w, e2e, mut traced, traced_failure) in measured {
        let e2e_rows = end_to_end_series(&e2e);
        traced.extend(roofline_series(&e2e, &ladder));
        let failures: Vec<&String> = e2e.failures.iter().chain(&traced_failure).collect();
        println!("\n{}: {}", w.name, w.why);
        print_section(
            &format!("{}: end to end, untraced", w.name),
            END_TO_END,
            &e2e_rows,
            &mut report,
        );
        println!(
            "{:<30} {:>8} {:>14.6}   ({} failed of {} attempted)",
            "failed_share",
            "ratio",
            failures.len() as f64 / (e2e.attempted + 1) as f64,
            failures.len(),
            e2e.attempted + 1
        );
        print_section(
            &format!("{}: traced rep and rooflines", w.name),
            PER_LAYER,
            &traced,
            &mut report,
        );
        for why in &failures {
            println!("FAILED REP: {why}");
        }
        failed += failures.len();
        printed.extend(e2e_rows.iter().chain(&traced).map(|(n, _)| n.clone()));
    }
    print_section("layers (workload-independent)", PER_LAYER, &ladder, &mut report);
    printed.extend(ladder.iter().map(|(n, _)| n.clone()));

    // Every registered name must have been printed, and nothing else.
    let registered: std::collections::BTreeSet<String> =
        END_TO_END.iter().chain(PER_LAYER).map(|m| m.name.to_string()).collect();
    if printed != registered {
        let missing: Vec<_> = registered.difference(&printed).collect();
        let extra: Vec<_> = printed.difference(&registered).collect();
        return Err(format!(
            "printed names differ from the registry: missing {missing:?}, extra {extra:?}"
        ));
    }
    s.write(
        "report.json",
        &Json::Obj(vec![("host".into(), s.host.clone()), ("rows".into(), Json::Arr(report))]),
    );
    println!(
        "\n{} failed reps; report, host block and spans are in {}",
        failed,
        s.out_dir.display()
    );
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

// -------------------------------------------------------------------
// --aa: the same code measured twice must agree within the bounds
// -------------------------------------------------------------------

fn aa_run(s: &mut Session, args: &Args) -> Result<ExitCode, String> {
    let effort = full_effort(args);
    let mut sets: Vec<Vec<Series>> = Vec::new();
    for set in ["A", "B"] {
        let mut per_workload = Vec::new();
        for w in &WORKLOADS {
            eprintln!("set {set}: {}", w.name);
            let (e2e, _) = measure(s, w, args.seed, effort)?;
            if let Some(why) = e2e.failures.first() {
                return Err(format!("{}: failed rep in set {set}: {why}", w.name));
            }
            per_workload.push(end_to_end_series(&e2e));
        }
        sets.push(per_workload);
    }
    println!(
        "{:<22} {:<20} {:>8} {:>14} {:>14} {:>9} {:>6}",
        "workload", "metric", "unit", "median A", "median B", "B worse", "bound"
    );
    let mut exceeded = 0;
    for (i, w) in WORKLOADS.iter().enumerate() {
        for m in END_TO_END {
            let a = median(lookup(&sets[0][i], m.name));
            let b = median(lookup(&sets[1][i], m.name));
            let worse = match m.better {
                Better::Higher => (a - b) / a,
                Better::Lower => (b - a) / a,
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let verdict = if worse.abs() > bound { "EXCEEDED" } else { "" };
            exceeded += usize::from(worse.abs() > bound);
            println!(
                "{:<22} {:<20} {:>8} {:>14.6} {:>14.6} {:>+8.2}% {:>5.0}% {verdict}",
                w.name,
                m.name,
                m.unit,
                a,
                b,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    println!(
        "{exceeded} of {} pairs differ by more than their bound",
        WORKLOADS.len() * END_TO_END.len()
    );
    Ok(if exceeded == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
