//! `suite`, `check` and `agree`: each workload in a process of its own,
//! results read back from the contract's result line.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::manifest;
use crate::table::{self, MetricDef, EXACT_COUNTS, SCHEDULING_DEPENDENT, WORKLOADS};
use crate::Flags;

struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// name → (value, unit), in the order printed.
    metrics: Vec<(String, f64, String)>,
    wall_s: f64,
}

impl Child {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Run one workload in a child process and parse its last stdout line.
/// With `echo` the child's report is passed through.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: u8,
    echo: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, report) = lines
        .split_last()
        .ok_or_else(|| format!("{workload}: no output"))?;
    if echo {
        for line in report {
            println!("{line}");
        }
    }
    if !output.status.success() {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    let result = Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    if result.keys() != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("{workload}: result keys {:?}", result.keys()));
    }
    let count = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_f64)
            .filter(|v| v.fract() == 0.0 && *v >= 0.0)
            .map(|v| v as u64)
            .ok_or_else(|| format!("{workload}: {key} is not a whole number"))
    };
    let metrics = match result.get("metrics") {
        Some(Json::Obj(kv)) => kv
            .iter()
            .map(|(name, m)| {
                if m.keys() != ["value", "unit"] {
                    return Err(format!("{workload}: metric {name} keys {:?}", m.keys()));
                }
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                    _ => Err(format!("{workload}: metric {name} is malformed")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(format!("{workload}: metrics is not an object")),
    };
    Ok(Child {
        correct: result.get("correct") == Some(&Json::Bool(true)),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
        wall_s,
    })
}

fn seed_and_seconds(flags: &Flags) -> Result<(u64, f64), String> {
    let seconds = match flags.get("seconds") {
        Some(s) => s,
        None => manifest::run_seconds()?,
    };
    Ok((flags.get("seed").unwrap_or(1), seconds))
}

/// One pass over every workload; `Err` names the first child that
/// could not be run or parsed.
fn pass(seed: u64, seconds: f64, trace: u8, echo: bool) -> Result<Vec<Child>, String> {
    WORKLOADS
        .iter()
        .map(|w| run_child(w.name, seed, seconds, trace, echo))
        .collect()
}

pub fn suite(flags: &Flags) -> ExitCode {
    let trace = flags.get("trace").unwrap_or(0u8);
    let children = match seed_and_seconds(flags).and_then(|(seed, s)| pass(seed, s, trace, true)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("\n== suite (trace {trace}) ==");
    let mut all_ok = true;
    for (w, c) in WORKLOADS.iter().zip(&children) {
        println!(
            "{:<24} correct={} ops attempted={} failed={} run={:.1}s",
            w.name, c.correct, c.attempted, c.failed, c.wall_s
        );
        if trace == 0 {
            for (name, value, unit) in &c.metrics {
                // the op count is the sample count of the window metrics
                let n = match name.as_str() {
                    "op_ms_p50" | "cell_steps_per_s" => format!(" (n={})", c.attempted),
                    _ => String::new(),
                };
                println!("    {name:<20} {value:>16.4} {unit}{n}");
            }
        }
        all_ok &= c.correct && c.failed == 0;
    }
    println!(
        "total {:.1}s",
        children.iter().map(|c| c.wall_s).sum::<f64>()
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The manifest against the contract and the table, then every
/// workload's traced and untraced result against the manifest's names.
pub fn check() -> ExitCode {
    let mut errors = manifest::validate();
    if errors.is_empty() {
        println!("BENCHMARK.json: valid, and names the table's workloads and metrics");
        for (trace, defs) in [(0u8, table::end_to_end()), (1, table::per_layer())] {
            for w in &WORKLOADS {
                match run_child(w.name, 1, 1.0, trace, false) {
                    Ok(c) => {
                        errors.extend(name_errors(w.name, trace, &c, &defs));
                        println!("{} trace {trace}: {} metrics", w.name, c.metrics.len());
                    }
                    Err(e) => errors.push(e),
                }
            }
        }
    }
    for e in &errors {
        eprintln!("check: {e}");
    }
    if errors.is_empty() {
        println!("check: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn name_errors(workload: &str, trace: u8, child: &Child, defs: &[MetricDef]) -> Vec<String> {
    let mut errors = Vec::new();
    for d in defs {
        match child.metrics.iter().find(|m| m.0 == d.name) {
            None => errors.push(format!("{workload} trace {trace}: omits {}", d.name)),
            Some((_, _, unit)) if unit != d.unit => {
                errors.push(format!(
                    "{workload} trace {trace}: {} in {unit}, manifest says {}",
                    d.name, d.unit
                ));
            }
            Some(_) => {}
        }
    }
    for (name, _, _) in &child.metrics {
        if !defs.iter().any(|d| &d.name == name) {
            errors.push(format!(
                "{workload} trace {trace}: emits {name}, which the manifest lacks"
            ));
        }
    }
    errors
}

/// Seconds of the traced passes `agree` makes for the exact counts,
/// which do not depend on the window's length.
const AGREE_TRACED_SECONDS: f64 = 2.0;

/// Two untraced passes compared metric by metric against the bounds,
/// then two short traced passes compared on the exact counts.
pub fn agree(flags: &Flags) -> ExitCode {
    let run = || -> Result<bool, String> {
        let (seed, seconds) = seed_and_seconds(flags)?;
        let mut ok = true;
        let first = pass(seed, seconds, 0, false)?;
        let second = pass(seed, seconds, 0, false)?;
        let bounds: BTreeMap<String, f64> = table::end_to_end()
            .into_iter()
            .map(|d| (d.name, d.bound.expect("end-to-end metrics carry a bound")))
            .collect();
        println!(
            "{:<24} {:<18} {:>14} {:>14} {:>8} {:>6}",
            "workload", "metric", "first", "second", "gap", "bound"
        );
        for ((w, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
            for (name, va, unit) in &a.metrics {
                let vb = b
                    .value(name)
                    .ok_or_else(|| format!("{}: {name} missing", w.name))?;
                let gap = (vb - va).abs() / va.abs();
                let bound = bounds[name];
                let verdict = if gap <= bound { "" } else { "  EXCEEDS" };
                println!(
                    "{:<24} {:<18} {:>14.4} {:>14.4} {:>7.2}% {:>5.0}% {unit}{verdict}",
                    w.name,
                    name,
                    va,
                    vb,
                    gap * 100.0,
                    bound * 100.0
                );
                ok &= gap <= bound;
            }
            if a.failed + b.failed > 0 {
                println!("{:<24} failed ops: {} and {}", w.name, a.failed, b.failed);
            }
            ok &= a.correct && b.correct;
        }
        let first = pass(seed, AGREE_TRACED_SECONDS, 1, false)?;
        let second = pass(seed, AGREE_TRACED_SECONDS, 1, false)?;
        for ((w, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
            for name in EXACT_COUNTS {
                if w.name == "serve_mixed" && SCHEDULING_DEPENDENT.contains(&name) {
                    continue;
                }
                let (va, vb) = (a.value(name), b.value(name));
                if va != vb {
                    println!("{:<24} {name}: {va:?} vs {vb:?}  DIFFERS", w.name);
                    ok = false;
                }
            }
        }
        println!(
            "exact counts: {} names x {} workloads compared",
            EXACT_COUNTS.len(),
            WORKLOADS.len()
        );
        Ok(ok)
    };
    match run() {
        Ok(true) => {
            println!("agree: ok");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("agree: FAILED");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("agree: {e}");
            ExitCode::FAILURE
        }
    }
}
