//! `BENCHMARK.json` against the builder contract's limits and against
//! the table the runner emits from.

use crate::json::Json;
use crate::measure::package_dir;
use crate::table::{self, MetricDef};

pub fn read() -> Result<(String, Json), String> {
    let path = package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text)?;
    Ok((text, json))
}

/// `run_seconds` of the manifest: the default window of `suite`/`agree`.
pub fn run_seconds() -> Result<f64, String> {
    read()?
        .1
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| "run_seconds missing".into())
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn is_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && !s.split('/').any(|part| part == "..")
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
}

fn exact_keys(v: &Json, want: &[&str], what: &str, errors: &mut Vec<String>) {
    if v.keys() != want {
        errors.push(format!(
            "{what}: keys {:?}, expected exactly {want:?}",
            v.keys()
        ));
    }
}

fn metric_list(
    v: &Json,
    section: &str,
    with_bound: bool,
    max: usize,
    errors: &mut Vec<String>,
) -> Vec<MetricDef> {
    let Some(items) = v.get(section).and_then(Json::as_arr) else {
        errors.push(format!("{section} is not a list"));
        return Vec::new();
    };
    if items.is_empty() || items.len() > max {
        errors.push(format!(
            "{section}: {} entries, allowed 1..={max}",
            items.len()
        ));
    }
    let keys: &[&str] = if with_bound {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    let mut out = Vec::new();
    for item in items {
        let name = item.get("name").and_then(Json::as_str).unwrap_or("");
        exact_keys(item, keys, &format!("{section} {name}"), errors);
        let unit = item.get("unit").and_then(Json::as_str).unwrap_or("");
        let better = item.get("better").and_then(Json::as_str).unwrap_or("");
        if !is_name(name) {
            errors.push(format!("{section}: illegal name {name:?}"));
        }
        if !is_unit(unit) {
            errors.push(format!("{section} {name}: illegal unit {unit:?}"));
        }
        if !matches!(better, "lower" | "higher") {
            errors.push(format!("{section} {name}: better is {better:?}"));
        }
        let bound = item.get("bound").and_then(Json::as_f64);
        if with_bound && !bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
            errors.push(format!(
                "{section} {name}: bound {bound:?} outside (0, 0.25]"
            ));
        }
        out.push((
            name.to_string(),
            unit.to_string(),
            better.to_string(),
            bound,
        ));
    }
    // compare against the table by value
    let table = if with_bound {
        table::end_to_end()
    } else {
        table::per_layer()
    };
    let as_tuple = |d: &MetricDef| {
        (
            d.name.clone(),
            d.unit.to_string(),
            d.better.to_string(),
            d.bound,
        )
    };
    let want: Vec<_> = table.iter().map(as_tuple).collect();
    for w in &want {
        if !out.contains(w) {
            errors.push(format!(
                "{section}: the runner emits {w:?}, the manifest lacks it"
            ));
        }
    }
    for o in &out {
        if !want.contains(o) {
            errors.push(format!(
                "{section}: the manifest lists {o:?}, the runner does not emit it"
            ));
        }
    }
    table
}

/// Every violation found; empty when the manifest is valid and agrees
/// with the table.
pub fn validate() -> Vec<String> {
    let mut errors = Vec::new();
    let (text, m) = match read() {
        Ok(ok) => ok,
        Err(e) => return vec![e],
    };
    if text.len() > 64 * 1024 {
        errors.push(format!("{} bytes, over 64 KiB", text.len()));
    }
    exact_keys(
        &m,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "manifest",
        &mut errors,
    );

    let strings = |key: &str| -> Vec<String> {
        m.get(key)
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|s| s.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    };
    let paths = strings("paths");
    if paths.is_empty() || paths.len() > 16 || !paths.iter().all(|p| is_path(p)) {
        errors.push(format!("paths {paths:?}: 1..=16 relative directory names"));
    }
    let command = strings("command");
    if command.is_empty() || command.len() > 32 || command.iter().any(|c| c.len() > 200) {
        errors.push("command: 1..=32 strings of at most 200 characters".into());
    }
    for word in &command {
        let leaves = word.starts_with('/') || word.split('/').any(|p| p == "..");
        let inside = paths.iter().any(|p| word.starts_with(p.as_str()));
        if leaves || (word.contains('/') && !inside) {
            errors.push(format!(
                "command word {word:?} names a path outside {paths:?}"
            ));
        }
    }
    match m.get("run_seconds").and_then(Json::as_f64) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {}
        other => errors.push(format!("run_seconds {other:?}: a whole number 1..=60")),
    }

    let mut names = Vec::new();
    match m.get("workloads").and_then(Json::as_arr) {
        Some(list) if (2..=8).contains(&list.len()) => {
            let listed: Vec<(&str, &str)> = list
                .iter()
                .map(|w| {
                    exact_keys(w, &["name", "why"], "workload", &mut errors);
                    (
                        w.get("name").and_then(Json::as_str).unwrap_or(""),
                        w.get("why").and_then(Json::as_str).unwrap_or(""),
                    )
                })
                .collect();
            for (name, why) in &listed {
                if !is_name(name) {
                    errors.push(format!("workload: illegal name {name:?}"));
                }
                if why.is_empty() || why.len() > 200 || why.contains('\n') {
                    errors.push(format!(
                        "workload {name}: why must be one line of <= 200 characters"
                    ));
                }
                names.push(name.to_string());
            }
            let want: Vec<(&str, &str)> =
                table::WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
            if listed != want {
                errors.push("workloads differ from table.rs (names, order or why)".into());
            }
        }
        _ => errors.push("workloads: a list of 2..=8".into()),
    }

    let e2e = metric_list(&m, "end_to_end", true, 16, &mut errors);
    let layers = metric_list(&m, "per_layer", false, 128, &mut errors);
    if !e2e
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower")
    {
        errors.push("end_to_end needs setup_s in s, lower".into());
    }
    let setup_bound = e2e
        .iter()
        .find(|d| d.name == "setup_s")
        .and_then(|d| d.bound);
    if e2e.iter().any(|d| d.bound > setup_bound) {
        errors.push("setup_s must carry the largest bound".into());
    }
    names.extend(e2e.iter().chain(&layers).map(|d| d.name.clone()));
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    if sorted.len() != names.len() {
        errors.push("a name is used more than once".into());
    }
    errors
}
