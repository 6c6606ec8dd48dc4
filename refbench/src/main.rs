//! Reference benchmark: three fixed workloads run through the public API
//! from raw rows to served score. See `README.md` in this directory.
//!
//! ```text
//! refbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! refbench compare <record-a.tsv> <record-b.tsv>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is 1
//! when any output check failed.

mod host;
mod layers;
mod pipeline;
mod serving;
mod stats;
mod trace;

use host::Fingerprint;
use optinter_data::RawDataset;
use pipeline::{LapKind, Model, RunStats, Workload};
use serving::{Requests, ServeSamples, OPEN_RATE_PER_S};
use stats::Summary;
use std::path::Path;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Seconds each serving phase runs per round. Short slices spread over
/// the whole run let every phase see the same mix of quiet and contended
/// periods on a shared host.
const SLICE_S: f64 = 0.25;

/// Quantile of the per-row cost of training batches reported as their
/// quiet-host cost.
const STEP_QUANTILE: f64 = 0.01;

/// Largest allowed gap between `pipeline_s` and the sum of its phases.
const PHASE_GAP: f64 = 0.05;

/// Where run records and span dumps go, relative to the working
/// directory.
const OUT_DIR: &str = ".refbench";

/// Operations attempted and failed, with the first few failure notes.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Records a failure note without counting it.
    pub fn note(&mut self, msg: String) {
        if self.notes.len() < 20 {
            self.notes.push(msg);
        }
    }

    /// Counts one failure.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.note(msg);
    }

    /// Counts a failure unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// The samples behind `value`, when there are several.
    summary: Option<Summary>,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    /// A single measured value.
    fn one(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name,
            unit,
            value,
            summary: None,
        });
    }

    /// The median of `samples`.
    fn median(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        let s = stats::summarize(samples);
        self.0.push(Metric {
            name,
            unit,
            value: s.median,
            summary: Some(s),
        });
    }

    /// The best of `samples`: the lowest when `lower_is_better`, else
    /// the highest.
    fn best(
        &mut self,
        name: &'static str,
        unit: &'static str,
        samples: &[f64],
        lower_is_better: bool,
    ) {
        let pick = if lower_is_better { f64::min } else { f64::max };
        let value = samples.iter().copied().reduce(pick).unwrap_or(f64::NAN);
        self.0.push(Metric {
            name,
            unit,
            value,
            summary: Some(stats::summarize(samples)),
        });
    }

    /// `value`, derived from the runs that `samples` summarize.
    fn derived(&mut self, name: &'static str, unit: &'static str, value: f64, samples: &[f64]) {
        self.0.push(Metric {
            name,
            unit,
            value,
            summary: Some(stats::summarize(samples)),
        });
    }

    /// Quantile `q` of `samples`, which must have ten samples beyond it.
    fn quantile(&mut self, name: &'static str, unit: &'static str, samples: &[f64], q: f64) {
        let value = stats::supported_quantile(samples, q).unwrap_or(f64::NAN);
        self.0.push(Metric {
            name,
            unit,
            value,
            summary: Some(stats::summarize(samples)),
        });
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: refbench --workload <criteo_pipeline|giant_vocab_pipeline|criteo_serve> \
--seed <n> --seconds <s> --trace <0|1>\n       refbench compare <record-a.tsv> <record-b.tsv>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("refbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    optinter_tensor::kernels::set_active(host::detected_backend());
    let fp = Fingerprint::detect();
    for (k, v) in fp.fields() {
        println!("# host {k}: {v}");
    }
    let (metrics, info, tally, tracer) = run(&args);
    std::process::exit(report(&args, &fp, &metrics, &info, &tally, &tracer));
}

/// Everything measured in one invocation.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    /// Untraced pipeline runs (the reference for parity).
    runs: Vec<RunStats>,
    /// Traced pipeline runs (trace mode only).
    traced: Vec<RunStats>,
    /// The newest run's model: the one served and replayed.
    model: Option<Model>,
}

impl Measured {
    /// Runs the pipeline once, recording spans into `tr` only when
    /// `traced`. Returns whether it produced a scorer.
    fn pipeline(
        &mut self,
        args: &Args,
        raw: &RawDataset,
        tr: &mut Tracer,
        traced: bool,
        tally: &mut Tally,
    ) -> bool {
        // Free the previous model first, so peak memory does not depend
        // on how many runs fit in the time.
        self.model = None;
        let mut off = Tracer::new(false);
        let tr = if traced { tr } else { &mut off };
        match pipeline::run(&args.workload, raw, args.seed, tr, tally) {
            Ok((stats, model)) => {
                if traced {
                    &mut self.traced
                } else {
                    &mut self.runs
                }
                .push(stats);
                self.model = Some(model);
                true
            }
            Err(e) => {
                tally.note(e);
                false
            }
        }
    }
}

fn run(args: &Args) -> (Metrics, Metrics, Tally, Tracer) {
    let w = &args.workload;
    let mut tally = Tally::default();
    let mut tr = Tracer::new(args.trace);
    let mut m = Measured::default();
    let (mut metrics, mut info) = (Metrics::default(), Metrics::default());

    // Set-up: raw-row generation, plus (serving workload) the whole
    // short pipeline that produces the served model.
    let mut raw = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let s = tr.enter("data.generate");
        let rows = w.generate(args.seed);
        tr.exit(s);
        if w.serving {
            // Traced mode alternates untraced and traced set-ups.
            m.pipeline(args, &rows, &mut tr, args.trace && i % 2 == 1, &mut tally);
        }
        m.setup_s.push(t.elapsed().as_secs_f64());
        raw = Some(rows);
    }
    let raw = raw.expect("at least one set-up");

    // Measured rounds: a pipeline run, then one serving slice of each
    // phase on the scorer it built, until the next round would overrun
    // the budget. Spreading the pipeline runs over the whole run, rather
    // than taking them from the set-up alone, lets them see the same mix
    // of quiet and contended periods as the serving slices.
    let t0 = Instant::now();
    let mut serve = ServeSamples::default();
    let mut rounds = 0.0;
    loop {
        let traced = args.trace && m.runs.len() > m.traced.len();
        if !m.pipeline(args, &raw, &mut tr, traced, &mut tally) {
            break;
        }
        let model = m.model.as_mut().expect("the pipeline produced a scorer");
        let req = Requests::new(
            &model.bundle.data,
            model.bundle.split.test.clone(),
            &model.test_probs,
            args.seed,
        );
        serve.slice(&mut model.scorer, &req, SLICE_S, &mut tally);
        rounds += 1.0;
        let elapsed = t0.elapsed().as_secs_f64();
        // Traced mode ends on a whole untraced/traced pair of pipeline runs.
        let pair_open = args.trace && m.runs.len() != m.traced.len();
        if !pair_open && elapsed * (rounds + 1.0) / rounds > args.seconds {
            break;
        }
    }
    check_runs(&m, &mut tally);
    let (Some(model), Some(first)) = (m.model.as_mut(), m.runs.first()) else {
        tally.fail("no pipeline run produced a scorer".into());
        return (metrics, info, tally, tr);
    };

    let (mut gflops, mut dispatch) = (Vec::new(), Vec::new());
    if args.trace {
        layers::replay_nn(model, &mut tr);
        gflops = layers::replay_matmul(model, &mut tr);
        dispatch = layers::replay_dispatch(&mut tr);
    }
    let req = Requests::new(
        &model.bundle.data,
        model.bundle.split.test.clone(),
        &model.test_probs,
        args.seed,
    );
    serve.top_up(&mut model.scorer, &req, &mut tally);
    let scoring = args
        .trace
        .then(|| layers::replay_scoring(&mut model.scorer, &req, &mut tr));
    drop(req);

    if let Some((b1, b32)) = scoring {
        per_layer(&mut metrics, &m, &tr);
        metrics.median("tensor.matmul_gflops", "GFLOP/s", &gflops);
        metrics.median("tensor.pool.dispatch_ns", "ns", &dispatch);
        metrics.median("serve.score_b1_us", "us", &b1);
        metrics.median("serve.score_b32_us", "us/row", &b32);
        metrics.one(
            "serve.microbatch.batch_size_mean",
            "rows",
            serve.sat.batch_size_mean(),
        );
        metrics.one(
            "serve.microbatch.flushes",
            "count",
            serve.sat.flushes as f64,
        );
        metrics.one("serve.gen_late_max_us", "us", serve.open.gen_late_max_us);
        metrics.one("planted_agreement", "share", first.agreement);
        metrics.best("single_p50_us", "us", &serve.single_window_p50, true);
        metrics.best("single_p99_us", "us", &serve.single_slice_p99, true);
        metrics.quantile("open_p99_us", "us", &serve.open.latency_us, 0.99);
        metrics.median("serve_rows_per_s", "rows/s", &serve.sat_slice_rate);
    } else {
        let runs = &m.runs;
        metrics.median("setup_s", "s", &m.setup_s);
        let search: Vec<f64> = runs.iter().flat_map(RunStats::search_rows_per_s).collect();
        let retrain: Vec<f64> = runs.iter().flat_map(RunStats::retrain_rows_per_s).collect();
        // Quiet-host figures: see `quiet_pipeline_s`.
        let search_row_s = quiet_row_s(runs, LapKind::Search);
        let retrain_row_s = quiet_row_s(runs, LapKind::Retrain);
        metrics.derived(
            "pipeline_s",
            "s",
            quiet_pipeline_s(runs, search_row_s, retrain_row_s),
            &collect(runs, |r| r.pipeline_s),
        );
        metrics.derived("search_rows_per_s", "rows/s", 1.0 / search_row_s, &search);
        metrics.derived(
            "retrain_rows_per_s",
            "rows/s",
            1.0 / retrain_row_s,
            &retrain,
        );
        metrics.one("test_auc", "auc", first.test_auc);
        metrics.one("peak_rss_mb", "MiB", host::peak_rss_mb());
        metrics.median("open_p50_us", "us", &serve.open.latency_us);
        info.one("planted_agreement", "share", first.agreement);
        info.best("single_p50_us", "us", &serve.single_window_p50, true);
        info.best("single_p99_us", "us", &serve.single_slice_p99, true);
        info.quantile("open_p99_us", "us", &serve.open.latency_us, 0.99);
        // The saturated front door has two steady states (see README.md),
        // and the host decides which one a slice ends in.
        info.median("serve_rows_per_s", "rows/s", &serve.sat_slice_rate);
        println!(
            "# {} pipeline run(s), {rounds} serving round(s); arch {}; open loop {} req/s, \
             generator late by up to {:.1} us",
            runs.len(),
            first.arch,
            OPEN_RATE_PER_S,
            serve.open.gen_late_max_us
        );
    }
    (metrics, info, tally, tr)
}

fn collect(runs: &[RunStats], f: impl Fn(&RunStats) -> f64) -> Vec<f64> {
    runs.iter().map(f).collect()
}

/// Training-batch seconds per row at quantile [`STEP_QUANTILE`] over
/// every batch lap of `kind` in `runs` (nearest rank). The batches of one
/// kind all run the same code on the same shapes, thousands of times a
/// run, so a low quantile is their cost while the shared host leaves the
/// benchmark alone; a run needs only a few quiet seconds in all, not a
/// quiet stretch as long as a whole pipeline run.
fn quiet_row_s(runs: &[RunStats], kind: LapKind) -> f64 {
    let per_row: Vec<f64> = runs
        .iter()
        .flat_map(|r| &r.laps.laps)
        .filter(|l| l.kind == kind && l.rows > 0)
        .map(|l| l.secs / l.rows as f64)
        .collect();
    stats::supported_low_quantile(&per_row, STEP_QUANTILE).unwrap_or(f64::NAN)
}

/// Raw rows to loaded scorer on a quiet host: every lap that is not a
/// training batch (encoding, model set-up, epoch starts and ends,
/// evaluation, freeze, round-trip, load) at its fastest over `runs`,
/// plus every training batch's rows at its kind's quiet cost per row.
/// `NaN` (a failed metric) when the runs' laps do not line up;
/// `check_runs` counts that.
fn quiet_pipeline_s(runs: &[RunStats], search_row_s: f64, retrain_row_s: f64) -> f64 {
    let other: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| {
            let laps = r.laps.laps.iter().filter(|l| l.kind == LapKind::Other);
            laps.map(|l| l.secs).collect()
        })
        .collect();
    let Some(first) = runs.first() else {
        return f64::NAN;
    };
    let batches: f64 = first
        .laps
        .laps
        .iter()
        .map(|l| match l.kind {
            LapKind::Search => l.rows as f64 * search_row_s,
            LapKind::Retrain => l.rows as f64 * retrain_row_s,
            LapKind::Other => 0.0,
        })
        .sum();
    stats::sum_of_minima(&other).map_or(f64::NAN, |s| s + batches)
}

/// Every run of one seed must give the same architecture, test AUC and
/// served probabilities, traced or not; phase times must add up.
fn check_runs(m: &Measured, tally: &mut Tally) {
    let all: Vec<&RunStats> = m.runs.iter().chain(&m.traced).collect();
    let Some(first) = all.first() else {
        return;
    };
    let want = first.identity();
    let want_laps = first.laps.kinds();
    for (i, r) in all.iter().enumerate() {
        tally.attempted += 1;
        tally.check(r.laps.kinds() == want_laps, || {
            format!("run {i}: its steps do not line up with run 0's")
        });
        tally.attempted += 1;
        tally.check(r.identity() == want, || {
            format!(
                "run {i} differs from run 0 (architecture, test AUC bits or served probabilities)"
            )
        });
        let gap = (r.pipeline_s - r.phases.sum()).abs() / r.pipeline_s;
        tally.attempted += 1;
        tally.check(gap <= PHASE_GAP, || {
            format!("run {i}: phases miss pipeline_s by {gap:.3}")
        });
    }
}

/// Per-layer metrics from the traced runs' spans.
fn per_layer(out: &mut Metrics, m: &Measured, tr: &Tracer) {
    let last = m.traced.last().or(m.runs.last()).expect("a pipeline ran");
    let us = |name: &str| tr.durations_us(name);
    let secs = |name: &str| -> Vec<f64> { us(name).iter().map(|x| x * 1e-6).collect() };
    out.median("data.generate_s", "s", &secs("data.generate"));
    out.median("data.vocab_build_s", "s", &secs("data.vocab_build"));
    out.median("data.encode_rows_s", "s", &secs("data.encode_rows"));
    let cross_vocab = m
        .model
        .as_ref()
        .expect("a pipeline ran")
        .bundle
        .data
        .cross_vocab;
    out.one("data.cross_vocab_rows", "count", f64::from(cross_vocab));
    out.median("data.batch_wait_us", "us", &us("data.batch_wait"));
    for (metric, span) in [
        ("core.supernet.forward_us", "core.supernet.forward"),
        ("core.supernet.backward_us", "core.supernet.backward"),
        ("core.supernet.step_us", "core.supernet.step"),
        ("core.net.forward_us", "core.net.forward"),
        ("core.net.backward_us", "core.net.backward"),
        ("core.net.step_us", "core.net.step"),
        ("nn.store.lookup_us", "nn.store.lookup"),
        ("nn.store.accumulate_us", "nn.store.accumulate"),
        ("nn.store.apply_adam_us", "nn.store.apply_adam"),
        ("nn.mlp.forward_us", "nn.mlp.forward"),
        ("nn.mlp.backward_us", "nn.mlp.backward"),
    ] {
        out.median(metric, "us", &us(span));
    }
    // Derived, not measured: what the net's forward spends outside the
    // replayed lookups and MLP forward.
    let med = |name: &str| stats::median(&us(name));
    out.one(
        "core.net.interaction_us",
        "us",
        med("core.net.forward") - med("nn.store.lookup") - med("nn.mlp.forward"),
    );
    let traced = m.traced.len().max(1) as f64;
    out.one(
        "core.trainer.eval_s",
        "s",
        secs("core.trainer.eval").iter().sum::<f64>() / traced,
    );
    out.one("core.search_batches", "count", last.search_batches as f64);
    out.one(
        "core.retrain_epochs",
        "count",
        last.retrain_epoch_s.len() as f64,
    );
    out.median("serve.freeze_s", "s", &secs("serve.freeze"));
    out.one("serve.artifact_bytes", "bytes", last.artifact_bytes as f64);
    out.median(
        "serve.artifact_roundtrip_s",
        "s",
        &secs("serve.artifact_roundtrip"),
    );
    out.median("serve.scorer_load_s", "s", &secs("serve.scorer_load"));
    let overhead = stats::median(&collect(&m.traced, |r| r.pipeline_s))
        - stats::median(&collect(&m.runs, |r| r.pipeline_s));
    out.one("trace.overhead_s", "s", overhead);
}

/// Prints the metric table and the result line, writes the run record,
/// and returns the exit code.
fn report(
    args: &Args,
    fp: &Fingerprint,
    metrics: &Metrics,
    info: &Metrics,
    tally: &Tally,
    tr: &Tracer,
) -> i32 {
    let mut tally_failed = tally.failed;
    for note in &tally.notes {
        eprintln!("refbench: check failed: {note}");
    }
    let row = |x: &Metric| {
        let detail = x.summary.map_or(String::new(), |s| {
            let tail = s
                .tail
                .map_or(String::new(), |(q, v)| format!(" p{}={v:.4}", q * 100.0));
            format!("median={:.4}{tail} n={}", s.median, s.n)
        });
        println!("# {:<34} {:>16.6} {:<8} {detail}", x.name, x.value, x.unit);
    };
    println!("# {:<34} {:>16} {:<8} samples", "metric", "value", "unit");
    for x in &metrics.0 {
        if !x.value.is_finite() {
            eprintln!("refbench: metric {} is not a finite number", x.name);
            tally_failed += 1;
        }
        row(x);
    }
    if !info.0.is_empty() {
        println!("# reported, not gated (they do not repeat within any bound; see README.md):");
        info.0.iter().for_each(row);
    }
    let correct = tally_failed == 0 && tally.attempted > 0;
    if let Err(e) = write_record(args, fp, metrics, tr) {
        eprintln!("refbench: could not write the run record: {e}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() {
                format!("{}", x.value)
            } else {
                String::from("null")
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {tally_failed}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        body.join(", ")
    );
    i32::from(!correct)
}

/// Writes the fingerprinted run record (and, traced, the spans) under
/// [`OUT_DIR`].
fn write_record(
    args: &Args,
    fp: &Fingerprint,
    metrics: &Metrics,
    tr: &Tracer,
) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    let mut text = String::new();
    for (k, v) in fp.fields() {
        text.push_str(&format!("fingerprint\t{k}\t{v}\n"));
    }
    for x in &metrics.0 {
        text.push_str(&format!("metric\t{}\t{}\t{}\n", x.name, x.unit, x.value));
    }
    std::fs::write(format!("{stem}.tsv"), text)?;
    if args.trace {
        tr.write_tsv(Path::new(&format!("{stem}.spans.tsv")))?;
    }
    Ok(())
}

/// A parsed run record: fingerprint and `(name, unit, value)` metrics.
type Record = (Fingerprint, Vec<(String, String, f64)>);

fn read_record(path: &str) -> Result<Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut fields = Vec::new();
    let mut metrics = Vec::new();
    for line in text.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        match cols.as_slice() {
            ["fingerprint", k, v] => fields.push((k.to_string(), v.to_string())),
            ["metric", name, unit, value] => {
                let v = value.parse().map_err(|e| format!("{path}: {name}: {e}"))?;
                metrics.push((name.to_string(), unit.to_string(), v));
            }
            _ => return Err(format!("{path}: malformed line {line:?}")),
        }
    }
    let fp = Fingerprint::from_fields(|k| {
        fields
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    })
    .ok_or_else(|| format!("{path}: missing fingerprint"))?;
    Ok((fp, metrics))
}

/// `compare A B`: prints B/A per metric, refusing records measured on
/// different hosts or backends (exit 3).
fn compare(paths: &[String]) -> i32 {
    let [a, b] = paths else {
        eprintln!("{USAGE}");
        return 2;
    };
    let (ra, rb) = match (read_record(a), read_record(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("refbench: {e}");
            return 2;
        }
    };
    let differ = ra.0.mismatches(&rb.0);
    if !differ.is_empty() {
        eprintln!(
            "refbench: refusing to compare runs from different hosts (differing: {})",
            differ.join(", ")
        );
        return 3;
    }
    println!("{:<34} {:>16} {:>16} {:>8}", "metric", "a", "b", "b/a");
    for (name, unit, va) in &ra.1 {
        if let Some((_, _, vb)) = rb.1.iter().find(|(n, u, _)| n == name && u == unit) {
            println!("{name:<34} {va:>16.6} {vb:>16.6} {:>8.4}", vb / va);
        }
    }
    0
}
