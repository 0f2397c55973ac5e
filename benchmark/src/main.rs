//! The repo's reference benchmark. One process runs one workload:
//!
//! ```text
//! ump-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ump-benchmark suite [--seed n] [--seconds s] [--trace 0|1]
//! ump-benchmark check
//! ump-benchmark agree [--seed n] [--seconds s]
//! ```
//!
//! The first form is the driver contract: the last line of its standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `suite` runs it once per workload (one process each) and
//! prints a table; `check` validates `BENCHMARK.json` against the table
//! in `table.rs` and against what the runner emits; `agree` runs the
//! suite twice and compares. See `README.md`.

mod json;
mod manifest;
mod measure;
mod mpi;
mod run;
mod serve;
mod sim;
mod suite;
mod table;
mod trace;

use std::process::ExitCode;

use json::{num, quote};
use run::{Args, Outcome};
use table::{Kind, MetricDef};
use trace::Tracer;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ump-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      ump-benchmark suite [--seed n] [--seconds s] [--trace 0|1]\n\
         \x20      ump-benchmark check\n\
         \x20      ump-benchmark agree [--seed n] [--seconds s]\n\
         workloads: {}",
        table::WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

/// `--key value` pairs after an optional subcommand.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Option<Flags> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key.strip_prefix("--")?;
            pairs.push((key.to_string(), it.next()?.clone()));
        }
        Some(Flags(pairs))
    }

    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("suite" | "check" | "agree")) => (c, &argv[1..]),
        Some(_) => ("run", &argv[..]),
        None => return usage(),
    };
    let Some(flags) = Flags::parse(rest) else {
        return usage();
    };
    match command {
        "suite" => suite::suite(&flags),
        "check" => suite::check(),
        "agree" => suite::agree(&flags),
        _ => run_one(&flags),
    }
}

fn run_one(flags: &Flags) -> ExitCode {
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (
        flags.get::<String>("workload"),
        flags.get::<u64>("seed"),
        flags.get::<f64>("seconds"),
        flags.get::<u8>("trace"),
    ) else {
        return usage();
    };
    let Some(workload) = table::workload(&name) else {
        eprintln!("unknown workload {name}");
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 60.0) || trace > 1 {
        return usage();
    }
    let args = Args {
        workload,
        seed,
        seconds,
        traced: trace == 1,
    };
    let mut tracer = Tracer::new(args.traced);
    let mut out = match &workload.kind {
        Kind::Sim(cfg) => sim::run(cfg, &args, &mut tracer),
        Kind::Mpi(cfg) => mpi::run(cfg, &args, &mut tracer),
        Kind::Serve(cfg) => serve::run(cfg, &args, &mut tracer),
    };
    if args.traced {
        out.put("trace.span_count", tracer.span_count() as f64);
    }
    let defs = if args.traced {
        table::per_layer()
    } else {
        table::end_to_end()
    };
    let result = report(&args, &mut out, &defs);
    if args.traced {
        if let Err(e) = write_trace(&args, &out, &tracer, &result) {
            eprintln!("writing the trace file: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}

/// Print the readable report and return the contract's result line.
/// Per-layer metrics of layers the workload never enters are reported
/// as 0 (the contract wants every declared name on every run); the
/// `measured` list in the trace file says which ones were real.
fn report(args: &Args, out: &mut Outcome, defs: &[MetricDef]) -> String {
    println!(
        "# {} seed={} seconds={} traced={}",
        args.workload.name, args.seed, args.seconds, args.traced
    );
    println!("provenance {}", out.provenance.to_json());
    println!(
        "check {}: {}",
        if out.correct { "ok" } else { "FAILED" },
        out.check_note
    );
    let mut rows = Vec::with_capacity(defs.len());
    for d in defs {
        let value = match out.metrics.get(&d.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                eprintln!("{} is not finite ({v})", d.name);
                out.correct = false;
                0.0
            }
            None if args.traced => 0.0,
            None => {
                eprintln!("{} was not measured", d.name);
                out.correct = false;
                0.0
            }
        };
        if out.metrics.contains_key(&d.name) {
            println!("{:<34} {:>16.6} {}", d.name, value, d.unit);
        }
        rows.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(&d.name),
            num(value),
            quote(d.unit)
        ));
    }
    println!("ops attempted {} failed {}", out.attempted, out.failed);
    out.correct &= out.failed == 0;
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        rows.join(", ")
    )
}

fn write_trace(args: &Args, out: &Outcome, tracer: &Tracer, result: &str) -> std::io::Result<()> {
    let dir = measure::package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let measured: Vec<String> = out.metrics.keys().map(|k| quote(k)).collect();
    let body = format!(
        "{{\n\"workload\": {},\n\"provenance\": {},\n\"check\": {},\n\"result\": {},\n\"measured\": [{}],\n\"spans\": {}\n}}\n",
        quote(args.workload.name),
        out.provenance.to_json(),
        quote(&out.check_note),
        result,
        measured.join(", "),
        tracer.spans_json()
    );
    std::fs::write(dir.join(format!("{}.trace.json", args.workload.name)), body)
}
