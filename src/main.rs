//! `optinter` — command-line interface to the OptInter pipeline.
//!
//! ```text
//! optinter stats    --profile criteo_like
//! optinter search   --profile tiny [--rows N] [--seed S] [--strategy joint|bilevel|random] [--out arch.txt]
//! optinter train    --profile tiny [--arch MMFN.. | --arch-file arch.txt | --uniform memorize] [--save model.bin]
//! optinter evaluate --profile tiny --load model.bin [--arch-file arch.txt]
//! ```
//!
//! Everything runs on synthetic profile data (deterministic per seed), so
//! the commands compose: `search` writes an architecture file, `train`
//! re-trains it from scratch and saves the weights, `evaluate` reloads and
//! scores the held-out split.

use optinter::core::persist::{
    architecture_from_string, architecture_to_string, load_net_weights, save_net,
};
use optinter::core::{
    net::DataDims, search_architecture, train_fixed, Architecture, Method, OptInterConfig,
    OptInterNet, SearchStrategy,
};
use optinter::data::{DatasetBundle, Profile};
use optinter::metrics::expected_calibration_error;
use optinter::tensor::kernels::{self, Backend};

use optinter::serve::{
    freeze_gated, run_zipf_load, FrozenModel, FrozenScorer, LoadSpec, MicroBatchOptions,
    MonotonicClock, Quant,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Options::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "stats" => cmd_stats(&opts),
        "search" => cmd_search(&opts),
        "train" => cmd_train(&opts),
        "evaluate" => cmd_evaluate(&opts),
        "freeze" => cmd_freeze(&opts),
        "serve" => cmd_serve(&opts),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
optinter — Memorize, Factorize, or be Naive (ICDE 2022) reproduction

USAGE:
  optinter stats    --profile <name>
  optinter search   --profile <name> [--rows N] [--seed S]
                    [--strategy joint|bilevel|random] [--out arch.txt]
  optinter train    --profile <name> [--rows N] [--seed S]
                    [--arch MFN.. | --arch-file f | --uniform memorize|factorize|naive]
                    [--save model.bin]
  optinter evaluate --profile <name> [--rows N] [--seed S]
                    --load model.bin [--arch-file f | --arch MFN..]
  optinter freeze   --profile <name> [--rows N] [--seed S]
                    --load model.bin [--arch-file f | --arch MFN..]
                    --out model.osa [--quant f32|f16|int8] [--max-auc-delta 0.001]
                    [--backend scalar|avx2fma]
  optinter serve    --profile <name> [--rows N] [--seed S]
                    --load-artifact model.osa [--threads N] [--requests N]
                    [--zipf S] [--max-batch N]
                    [--backend scalar|avx2fma]

PROFILES: criteo_like, avazu_like, ipinyou_like, private_like, tiny";

struct Options {
    flags: HashMap<String, String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got `{}`", args[i]))?;
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            flags.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(Self { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    fn profile(&self) -> Result<Profile, String> {
        let name = self.get("profile").ok_or("missing --profile")?;
        match name {
            "criteo_like" => Ok(Profile::CriteoLike),
            "avazu_like" => Ok(Profile::AvazuLike),
            "ipinyou_like" => Ok(Profile::IpinyouLike),
            "private_like" => Ok(Profile::PrivateLike),
            "tiny" => Ok(Profile::Tiny),
            other => Err(format!("unknown profile `{other}`")),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        match self.get("seed") {
            None => Ok(42),
            Some(s) => s.parse().map_err(|_| format!("bad --seed `{s}`")),
        }
    }

    fn bundle(&self) -> Result<DatasetBundle, String> {
        let profile = self.profile()?;
        let rows = match self.get("rows") {
            None => profile.default_rows(),
            Some(s) => s.parse().map_err(|_| format!("bad --rows `{s}`"))?,
        };
        eprintln!("generating {} ({rows} rows)...", profile.name());
        Ok(profile.bundle_with_rows(rows, self.seed()?))
    }

    fn config(&self, num_pairs_hint: usize) -> Result<OptInterConfig, String> {
        let _ = num_pairs_hint;
        Ok(OptInterConfig {
            seed: self.seed()?,
            ..OptInterConfig::default()
        })
    }

    fn architecture(&self, num_pairs: usize) -> Result<Architecture, String> {
        if let Some(s) = self.get("arch") {
            let arch = architecture_from_string(s)?;
            if arch.num_pairs() != num_pairs {
                return Err(format!(
                    "--arch has {} pairs, dataset has {num_pairs}",
                    arch.num_pairs()
                ));
            }
            return Ok(arch);
        }
        if let Some(path) = self.get("arch-file") {
            let s = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let arch = architecture_from_string(s.trim())?;
            if arch.num_pairs() != num_pairs {
                return Err(format!(
                    "{path} has {} pairs, dataset has {num_pairs}",
                    arch.num_pairs()
                ));
            }
            return Ok(arch);
        }
        let method = match self.get("uniform").unwrap_or("memorize") {
            "memorize" => Method::Memorize,
            "factorize" => Method::Factorize,
            "naive" => Method::Naive,
            other => return Err(format!("unknown --uniform method `{other}`")),
        };
        Ok(Architecture::uniform(method, num_pairs))
    }
}

fn cmd_stats(opts: &Options) -> Result<(), String> {
    use optinter::data::stats::DatasetStats;
    let bundle = opts.bundle()?;
    let stats = DatasetStats::compute(&bundle);
    println!("{}", DatasetStats::header());
    println!("{}", DatasetStats::separator());
    println!("{}", stats.row());
    Ok(())
}

fn cmd_search(opts: &Options) -> Result<(), String> {
    let bundle = opts.bundle()?;
    let cfg = opts.config(bundle.data.num_pairs)?;
    let strategy = match opts.get("strategy").unwrap_or("joint") {
        "joint" => SearchStrategy::Joint,
        "bilevel" => SearchStrategy::BiLevel,
        "random" => SearchStrategy::Random { seed: cfg.seed },
        other => return Err(format!("unknown --strategy `{other}`")),
    };
    eprintln!("searching ({strategy:?})...");
    let outcome = search_architecture(&bundle, &cfg, strategy);
    let s = architecture_to_string(&outcome.architecture);
    println!(
        "architecture {} {}  (planted agreement {:.0}%)",
        outcome.architecture.counts_string(),
        s,
        100.0 * outcome.architecture.agreement_with(&bundle.planted)
    );
    if let Some(path) = opts.get("out") {
        std::fs::write(path, &s).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_train(opts: &Options) -> Result<(), String> {
    let bundle = opts.bundle()?;
    let cfg = opts.config(bundle.data.num_pairs)?;
    let arch = opts.architecture(bundle.data.num_pairs)?;
    eprintln!("training architecture {}...", arch.counts_string());
    let (mut net, report) = train_fixed(&bundle, &cfg, arch);
    println!(
        "test AUC {:.4}  log-loss {:.4}  params {}",
        report.auc, report.log_loss, report.num_params
    );
    if let Some(path) = opts.get("save") {
        let path = PathBuf::from(path);
        save_net(&mut net, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {} (+ .arch)", path.display());
    }
    Ok(())
}

/// Builds a network from `--load model.bin` plus the architecture flags
/// (or the `.arch` side-file written by `train --save`) — shared by
/// `evaluate` and `freeze`.
fn load_trained_net(opts: &Options, bundle: &DatasetBundle) -> Result<OptInterNet, String> {
    let cfg = opts.config(bundle.data.num_pairs)?;
    let path = PathBuf::from(opts.get("load").ok_or("missing --load")?);
    // Architecture: explicit flag, or the side-file written by `train --save`.
    let arch = if opts.get("arch").is_some() || opts.get("arch-file").is_some() {
        opts.architecture(bundle.data.num_pairs)?
    } else {
        let arch_path = path.with_extension("arch");
        let s = std::fs::read_to_string(&arch_path)
            .map_err(|e| format!("{}: {e}", arch_path.display()))?;
        architecture_from_string(s.trim())?
    };
    let mut net = OptInterNet::new(cfg, DataDims::of(&bundle.data), arch);
    load_net_weights(&mut net, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(net)
}

fn cmd_evaluate(opts: &Options) -> Result<(), String> {
    let bundle = opts.bundle()?;
    let cfg = opts.config(bundle.data.num_pairs)?;
    let mut net = load_trained_net(opts, &bundle)?;
    let mut probs = Vec::new();
    let mut labels = Vec::new();
    optinter::data::BatchStream::new(
        &bundle.data,
        bundle.split.test.clone(),
        cfg.batch_size,
        None,
    )
    .prefetch(cfg.prefetch)
    .for_each(|batch| {
        probs.extend(net.predict(batch));
        labels.extend_from_slice(&batch.labels);
    });
    let eval = optinter::metrics::evaluate(&probs, &labels);
    let ece = expected_calibration_error(&probs, &labels, 10);
    println!(
        "test AUC {:.4}  log-loss {:.4}  ECE {:.4}  ({} examples)",
        eval.auc,
        eval.log_loss,
        ece,
        labels.len()
    );
    Ok(())
}

/// Applies `--backend` (forcing the process-wide kernel backend) and
/// returns the selection in effect. Without the flag the default stands:
/// the `OPTINTER_KERNEL_BACKEND` env override or CPU detection.
fn apply_backend_flag(opts: &Options) -> Result<Backend, String> {
    match opts.get("backend") {
        None => Ok(kernels::active()),
        Some(name) => {
            let b = Backend::parse(name)
                .ok_or_else(|| format!("unknown --backend `{name}` (scalar|avx2fma)"))?;
            if !b.is_supported() {
                return Err(format!("--backend {name} is not supported on this host"));
            }
            kernels::set_active(b);
            Ok(b)
        }
    }
}

fn cmd_freeze(opts: &Options) -> Result<(), String> {
    let bundle = opts.bundle()?;
    let mut net = load_trained_net(opts, &bundle)?;
    let out = PathBuf::from(opts.get("out").ok_or("missing --out")?);
    let quant = match opts.get("quant").unwrap_or("f32") {
        "f32" => Quant::F32,
        "f16" => Quant::F16,
        "int8" => Quant::Int8,
        other => return Err(format!("unknown --quant `{other}` (f32|f16|int8)")),
    };
    let max_auc_delta = match opts.get("max-auc-delta") {
        None => 0.001,
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad --max-auc-delta `{s}`"))?,
    };
    let backend = apply_backend_flag(opts)?;
    eprintln!(
        "freezing ({} rows of held-out eval data, {} kernels)...",
        bundle.split.test.len(),
        backend.name()
    );
    let (frozen, delta) = freeze_gated(
        &mut net,
        &bundle.data,
        bundle.split.test.clone(),
        quant,
        max_auc_delta,
    )
    .map_err(|e| e.to_string())?;
    frozen
        .write_file(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    let bytes = frozen.to_bytes().len();
    println!(
        "froze {} artifact ({} kernels): {} tensors, {} embedding rows hot-first, \
         AUC delta {delta:.6} (gate {max_auc_delta}), {bytes} bytes -> {}",
        quant.name(),
        frozen.backend.name(),
        frozen.tensors.len(),
        frozen.row_map.len(),
        out.display()
    );
    Ok(())
}

fn cmd_serve(opts: &Options) -> Result<(), String> {
    let bundle = opts.bundle()?;
    let path = PathBuf::from(opts.get("load-artifact").ok_or("missing --load-artifact")?);
    let frozen = FrozenModel::read_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if frozen.dims.num_fields != bundle.data.num_fields
        || frozen.dims.num_pairs != bundle.data.num_pairs
    {
        return Err(format!(
            "artifact was frozen for {} fields / {} pairs, dataset has {} / {}",
            frozen.dims.num_fields,
            frozen.dims.num_pairs,
            bundle.data.num_fields,
            bundle.data.num_pairs
        ));
    }
    let parse_usize = |key: &str, default: usize| -> Result<usize, String> {
        match opts.get(key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("bad --{key} `{s}`")),
        }
    };
    let threads = parse_usize("threads", 1)?;
    let requests = parse_usize("requests", 50_000)?;
    let max_batch = parse_usize("max-batch", 32)?;
    let zipf_s = match opts.get("zipf") {
        None => 1.05,
        Some(s) => s.parse().map_err(|_| format!("bad --zipf `{s}`"))?,
    };
    apply_backend_flag(opts)?;
    let mut scorer = FrozenScorer::new(&frozen, threads).map_err(|e| e.to_string())?;
    let clock = MonotonicClock::new();
    let mb = MicroBatchOptions {
        queue_slots: 2 * max_batch.max(1),
        max_batch,
    };
    let spec = LoadSpec {
        requests,
        zipf_s,
        seed: opts.seed()?,
        interarrival_ns: 0,
    };
    eprintln!(
        "serving {requests} Zipf(s={zipf_s}) requests, {threads} thread(s), \
         max batch {max_batch}, {} kernels \
         (artifact frozen with {})...",
        scorer.backend().name(),
        scorer.frozen_backend().name()
    );
    let report = run_zipf_load(&mut scorer, &bundle.data, &clock, &mb, &spec);
    let s = report.summary();
    println!(
        "scored {} requests: p50 {:.1}us  p99 {:.1}us  p999 {:.1}us  {:.0} rows/s",
        s.count,
        s.p50_ns / 1_000.0,
        s.p99_ns / 1_000.0,
        s.p999_ns / 1_000.0,
        s.rows_per_sec
    );
    let st = report.stats;
    let flushes = st.flushes.max(1) as f64;
    println!(
        "front door: {} flushes, mean batch {:.2}, {:.1}% full, {} NaN rows",
        st.flushes,
        st.rows as f64 / flushes,
        100.0 * st.full_flushes as f64 / flushes,
        st.nan_rows
    );
    Ok(())
}
