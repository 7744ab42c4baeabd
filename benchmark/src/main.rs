//! `sdr-benchmark` — the repository's one benchmark. See `README.md` in
//! this directory for why each workload and metric exists and how to
//! phrase a performance claim against them.
//!
//! ```text
//! sdr-benchmark [run] --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! sdr-benchmark [run] [--seed S] [--seconds T] [--trace 0|1] [--smoke]     # every workload
//! sdr-benchmark compare A.json B.json
//! ```
//!
//! One workload runs in one process; with no `--workload` the binary
//! re-executes itself once per workload and merges the children's result
//! files. The last line of standard output of a single-workload run is the
//! result object the acceptance driver parses.

mod adaptive;
mod bulk;
mod compare;
mod flows;
mod host;
mod json;
mod ladder;
mod metrics;
mod probes;
mod run;
mod span;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Value;
use run::{Options, Report, WORKLOADS};

#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;

const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: f64 = 20.0;
/// How the acceptance driver starts a run; it appends
/// `--workload W --seed N --seconds T --trace 0|1`.
const DRIVER_COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
const DEFAULT_OUT_DIR: &str = "benchmark/out";

struct Cli {
    workload: Option<String>,
    options: Options,
    out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: sdr-benchmark [run] [--workload W] [--seed S] [--seconds T] [--trace 0|1] \
         [--smoke] [--out-dir DIR]\n       sdr-benchmark compare A.json B.json\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_run_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        options: Options {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        },
        out_dir: PathBuf::from(DEFAULT_OUT_DIR),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                cli.options.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                cli.options.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && (0.0..=600.0).contains(s))
                    .ok_or("--seconds takes a number of seconds in 0..=600")?;
            }
            "--trace" => {
                cli.options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => cli.options.smoke = true,
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if let Some(name) = &cli.workload {
        if run::find_workload(name).is_none() {
            return Err(format!("unknown workload {name:?}\n{}", usage()));
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("run") => parse_run_args(&args[1..]).and_then(dispatch),
        // Internal: one timed build for the parent's `setup_s` median.
        Some("setup") => parse_run_args(&args[1..]).and_then(|cli| {
            let name = cli.workload.ok_or("setup needs --workload")?;
            let spec = run::find_workload(&name).expect("validated by parse_run_args");
            println!("{}", run::time_setup(spec, cli.options.seed));
            Ok(ExitCode::SUCCESS)
        }),
        // Prints `BENCHMARK.json` as the catalogue defines it (redirect it
        // to the repository root after editing a workload or a metric).
        Some("manifest") => {
            print!("{}", manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        // `trace` is shorthand for `run --trace 1`.
        Some("trace") => parse_run_args(&args[1..]).and_then(|mut cli| {
            cli.options.trace = true;
            dispatch(cli)
        }),
        _ => parse_run_args(&args).and_then(dispatch),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sdr-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// `BENCHMARK.json`: the acceptance driver's view of this benchmark.
fn manifest() -> Value {
    let metric = |m: &metrics::MetricDef, bounded: bool| {
        let mut entry = vec![
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better.as_str())),
        ];
        if bounded {
            entry.push(("bound", Value::Num(m.bound)));
        }
        Value::obj(entry)
    };
    Value::obj([
        (
            "command",
            Value::Arr(DRIVER_COMMAND.iter().map(|a| Value::str(*a)).collect()),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|m| metric(m, true))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|m| metric(m, false))
                    .collect(),
            ),
        ),
    ])
}

fn dispatch(cli: Cli) -> Result<ExitCode, String> {
    match &cli.workload {
        Some(name) => run_one(name, &cli),
        None => run_all(&cli),
    }
}

/// File a single-workload run leaves in the output directory.
fn result_path(dir: &Path, trace: bool, workload: &str) -> PathBuf {
    dir.join(format!(
        "{}-{workload}.json",
        if trace { "layers" } else { "run" }
    ))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn print_metrics(report: &Report) {
    for m in &report.metrics {
        println!(
            "{} {} {} {} (n={}, {} clock)",
            report.workload,
            m.def.name,
            m.value,
            m.def.unit,
            m.samples,
            m.def.clock.as_str()
        );
    }
}

fn run_one(name: &str, cli: &Cli) -> Result<ExitCode, String> {
    let spec = run::find_workload(name).expect("validated by parse_run_args");
    let report = run::run(spec, cli.options.clone());
    print_metrics(&report);
    write_file(
        &result_path(&cli.out_dir, cli.options.trace, name),
        &report.to_value().to_pretty(),
    )?;
    if cli.options.trace {
        write_file(
            &cli.out_dir.join(format!("trace-{name}.json")),
            &report.spans.to_chrome_trace().to_pretty(),
        )?;
    }
    // Last line of stdout: the result object.
    println!("{}", report.result_line());
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "sdr-benchmark: {name}: {} of {} transfers failed verification or a guard tripped",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    })
}

/// Runs every workload, each in a child process of its own, and merges
/// their records into `results.json` (or `layers.json` for a traced run).
fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for spec in WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", spec.name])
            .args(["--seed", &cli.options.seed.to_string()])
            .args(["--seconds", &cli.options.seconds.to_string()])
            .args(["--trace", if cli.options.trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&cli.out_dir);
        if cli.options.smoke {
            child.arg("--smoke");
        }
        // `status` waits for the child; its stdout is ours.
        let status = child
            .status()
            .map_err(|e| format!("spawn {}: {e}", spec.name))?;
        all_correct &= status.success();
        let path = result_path(&cli.out_dir, cli.options.trace, spec.name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        records.push(json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let merged = Value::obj([
        ("benchmark", Value::str("sdr-rdma")),
        ("seed", Value::Num(cli.options.seed as f64)),
        ("seconds", Value::Num(cli.options.seconds)),
        ("smoke", Value::Bool(cli.options.smoke)),
        ("trace", Value::Bool(cli.options.trace)),
        ("workloads", Value::Arr(records)),
        // This file records measurements; it claims no gain.
        ("claim", Value::Null),
    ]);
    let name = if cli.options.trace {
        "layers.json"
    } else {
        "results.json"
    };
    let path = cli.out_dir.join(name);
    write_file(&path, &merged.to_pretty())?;
    eprintln!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(usage());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    let (table, regressed) = compare::render(&rows);
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let cli = parse_run_args(&args(
            "--workload flows_1k --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("flows_1k"));
        assert_eq!(cli.options.seed, 42);
        assert_eq!(cli.options.seconds, 10.0);
        assert!(cli.options.trace && !cli.options.smoke);
    }

    #[test]
    fn defaults_and_rejections() {
        let cli = parse_run_args(&[]).unwrap();
        assert_eq!(cli.options.seed, DEFAULT_SEED);
        assert!(cli.workload.is_none() && !cli.options.trace);
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds nan",
            "--seconds 1e9",
            "--trace 2",
            "--seed",
            "--bogus",
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }

    /// `BENCHMARK.json` must be exactly what the catalogue generates, and
    /// the catalogue must fit the acceptance contract's limits.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert!(text.len() <= 64 << 10, "manifest is at most 64 KiB");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(doc, manifest(), "regenerate with `sdr-benchmark manifest`");

        let Value::Obj(members) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ],
            "exactly the contract's keys"
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(
                metrics::well_formed_name(w.name),
                "workload name {:?}",
                w.name
            );
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
            assert!(
                WORKLOADS[..i].iter().all(|o| o.name != w.name),
                "duplicate {}",
                w.name
            );
            assert!(
                metrics::find(w.name).is_none(),
                "{} is also a metric name",
                w.name
            );
            assert!(w.sim_iters >= 1 && w.sim_iters <= w.max_iters && w.batch >= 1);
            assert_eq!(w.payload_bytes % (w.mtu * u64::from(w.batch)), 0);
        }
        assert!(DRIVER_COMMAND.len() <= 32 && DRIVER_COMMAND.iter().all(|a| a.len() <= 200));
        assert!((1.0..=60.0).contains(&DEFAULT_SECONDS) && DEFAULT_SECONDS.fract() == 0.0);
    }
}
