//! `carta-perfbench`: the repository's benchmark binary. `run.py`
//! builds it together with `carta-server` and runs
//!
//! ```text
//! carta-perfbench --workload sweep|serve|optimize --seed N --seconds S --trace 0|1
//! ```
//!
//! It prints each check and metric with its unit, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics of an untraced run or the per-layer metrics of a traced
//! one. `--record-reference N` instead prints the reference document
//! for input seeds `0..N` (see `reference.json`).

mod common;
mod host;
mod kernel;
mod optimize;
mod serve;
mod sweep;
mod trace;

use carta_obs::json::ObjectBuilder;
use common::{object, References, Report, RunConfig, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    config: RunConfig,
    commit: String,
    record_reference: Option<u64>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "error: {msg}\nusage: carta-perfbench --workload sweep|serve|optimize --seed N \
         --seconds S --trace 0|1 [--server-bin PATH] [--work-dir DIR] [--commit SHA] \
         [--corrupt-reference] [--mix KIND=PER_MILLE,...]\n       carta-perfbench --record-reference N"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut server_bin = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench");
    let mut commit = "unknown".to_string();
    let mut corrupt_reference = false;
    let mut record_reference = None;
    let mut mix = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--commit" => commit = value()?,
            "--corrupt-reference" => corrupt_reference = true,
            "--mix" => mix = Some(value()?),
            "--record-reference" => {
                record_reference = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--record-reference: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    if record_reference.is_none() {
        match workload.as_deref() {
            Some("sweep" | "serve" | "optimize") => {}
            Some(other) => return Err(format!("unknown workload {other}")),
            None => return Err("--workload is required".into()),
        }
        if seed.is_none() || seconds.is_none() {
            return Err("--seed and --seconds are required".into());
        }
        if mix.is_some() && workload.as_deref() != Some("serve") {
            return Err("--mix applies to the serve workload only".into());
        }
    }
    Ok(Args {
        workload: workload.unwrap_or_default(),
        config: RunConfig {
            seed: seed.unwrap_or(0),
            seconds: seconds.unwrap_or(1.0),
            trace,
            jobs,
            corrupt_reference,
            work_dir,
            server_bin,
            mix,
        },
        commit,
        record_reference,
    })
}

fn print_report(workload: &str, cfg: &RunConfig, report: &Report) {
    for check in &report.checks {
        println!(
            "check {:<44} {}  {}",
            check.name,
            if check.ok { "ok  " } else { "FAIL" },
            check.detail
        );
    }
    for (key, value) in &report.notes {
        println!("note  {key:<44} {value}");
    }
    let catalogue = if cfg.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in catalogue {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("metric {workload}/{name:<38} {value:>16.6} {unit}");
    }
}

/// The final line: exactly the catalogue of this mode, every value a
/// finite number.
fn result_line(cfg: &RunConfig, report: &Report) -> String {
    let catalogue = if cfg.trace { PER_LAYER } else { END_TO_END };
    let metrics = catalogue
        .iter()
        .fold(ObjectBuilder::new(), |b, (name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            b.raw(
                name,
                &ObjectBuilder::new()
                    .num("value", value)
                    .string("unit", unit)
                    .build(),
            )
        })
        .build();
    ObjectBuilder::new()
        .bool("correct", report.correct())
        .uint("attempted", report.attempted.max(1))
        .uint("failed", report.failed)
        .raw("metrics", &metrics)
        .build()
}

fn write_record(workload: &str, args: &Args, report: &Report) -> std::io::Result<()> {
    let cfg = &args.config;
    std::fs::create_dir_all(&cfg.work_dir)?;
    let stem = format!("{workload}-seed{}-trace{}", cfg.seed, u8::from(cfg.trace));
    let checks: Vec<(String, String)> = report
        .checks
        .iter()
        .map(|c| {
            (
                c.name.clone(),
                format!("{} {}", if c.ok { "ok" } else { "FAIL" }, c.detail),
            )
        })
        .collect();
    let record = ObjectBuilder::new()
        .string("workload", workload)
        .uint("seed", cfg.seed)
        .uint("input_seed", cfg.input_seed())
        .uint("cpus", cfg.jobs as u64)
        .string("commit", &args.commit)
        .num("seconds", cfg.seconds)
        .bool("trace", cfg.trace)
        .raw("checks", &object(&checks))
        .raw("notes", &object(&report.notes))
        .build();
    std::fs::write(
        cfg.work_dir.join(format!("{stem}.json")),
        format!("{record}\n"),
    )?;
    if !report.spans.is_empty() {
        trace::write_jsonl(
            &cfg.work_dir.join(format!("{stem}.spans.jsonl")),
            &report.spans,
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => return usage(&msg),
    };
    if let Some(seeds) = args.record_reference {
        println!("{}", record_references(seeds, args.config.jobs));
        return ExitCode::SUCCESS;
    }
    let refs = References::load();
    let cfg = &args.config;
    let report = match args.workload.as_str() {
        "sweep" => sweep::run(cfg, &refs),
        "serve" => match serve::run(cfg) {
            Ok(report) => report,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(1);
            }
        },
        _ => optimize::run(cfg, &refs),
    };
    println!(
        "perfbench {}: seed {} (inputs from seed {}), {} cpus, commit {}, {} s{}",
        args.workload,
        cfg.seed,
        cfg.input_seed(),
        cfg.jobs,
        args.commit,
        cfg.seconds,
        if cfg.trace { ", traced" } else { "" }
    );
    print_report(&args.workload, cfg, &report);
    if let Err(e) = write_record(&args.workload, &args, &report) {
        eprintln!("warning: cannot write the run record: {e}");
    }
    println!("{}", result_line(cfg, &report));
    ExitCode::SUCCESS
}

/// The reference document for input seeds `0..seeds`.
fn record_references(seeds: u64, jobs: usize) -> String {
    let rows: Vec<String> = (0..seeds)
        .map(|seed| {
            eprintln!("recording reference for seed {seed}");
            format!(
                "\"{seed}\": {}",
                ObjectBuilder::new()
                    .raw("sweep", &sweep::reference(seed, jobs))
                    .raw("optimize", &optimize::reference(seed, jobs))
                    .build()
            )
        })
        .collect();
    format!(
        "{{\"schema\": \"carta.perfbench.reference.v1\", \"seeds\": {{\n{}\n}}}}",
        rows.join(",\n")
    )
}
