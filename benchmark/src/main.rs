//! The repository's benchmark: four workloads, three gated end-to-end
//! metrics, per-layer traces. See `README.md` beside this package.
//!
//! ```text
//! omni-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <set.json>]
//! omni-benchmark --smoke [--workload <name>] [--record <set.json>]
//! omni-benchmark compare <a.json> <b.json>
//! omni-benchmark noise <seconds>
//! ```

mod compare;
mod engine;
mod estimator;
mod gen;
mod hist;
mod host;
mod isolated;
mod json;
mod metrics;
mod sim;
mod tcp;
mod tcp_trace;
mod tcpcluster;
mod trace;

use json::Json;
use metrics::{Outcome, WORKLOADS};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Seconds a `--smoke` run measures for: long enough to exercise every
/// phase and check, far too short to measure anything.
const SMOKE_SECONDS: f64 = 3.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    record: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: omni-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--record <set.json>]\n\
         \x20      omni-benchmark --smoke [--workload <name>] [--record <set.json>]\n\
         \x20      omni-benchmark compare <a.json> <b.json>\n\
         \x20      omni-benchmark noise <seconds>",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2)
}

fn parse(args: &[String]) -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 0.0,
        traced: false,
        smoke: false,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => a.traced = value() == "1",
            "--record" => a.record = Some(value()),
            "--smoke" => a.smoke = true,
            _ => usage(),
        }
    }
    if a.smoke {
        a.seconds = SMOKE_SECONDS;
    }
    if a.seconds <= 0.0 || (a.workload.is_none() && !a.smoke) {
        usage();
    }
    a
}

fn run_one(workload: &str, a: &Args, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    match (tcp::Workload::from_name(workload), traced) {
        (Some(w), false) => tcp::run(w, a.seed, a.seconds, a.smoke, &mut out),
        (Some(w), true) => tcp_trace::run(w, a.seed, a.seconds, a.smoke, &mut out),
        (None, _) if workload == "engine_put_wal" => {
            engine::run(a.seed, a.seconds, traced, &mut out)
        }
        _ => usage(),
    }
    out
}

/// Append this run to a recorded set (a JSON list of runs).
fn record(path: &str, workload: &str, a: &Args, traced: bool, out: &Outcome) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)?
            .as_arr()
            .ok_or("not a list of runs")?
            .to_vec(),
        Err(_) => Vec::new(),
    };
    runs.push(Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("trace", Json::Num(traced as u8 as f64)),
        ("smoke", Json::Bool(a.smoke)),
        (
            "notes",
            Json::Obj(
                out.notes
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "check_failures",
            Json::Arr(out.check_failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("result", out.result_line(traced)),
    ]));
    let text: Vec<String> = runs.iter().map(Json::render).collect();
    std::fs::write(path, format!("[\n{}\n]\n", text.join(",\n"))).map_err(|e| e.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => std::process::exit(compare::run(&args[1], &args[2])),
        Some("noise") if args.len() == 2 => {
            // The synthetic noisy neighbour: one thread of the
            // allocate-and-hash loop, for as long as asked.
            let secs: f64 = args[1].parse().unwrap_or_else(|_| usage());
            let until = Instant::now() + Duration::from_secs_f64(secs);
            while Instant::now() < until {
                host::host_probe_mops(Duration::from_millis(200));
            }
            return;
        }
        _ => {}
    }
    let a = parse(&args);
    let runs: Vec<(String, bool)> = match &a.workload {
        Some(w) => vec![(w.clone(), a.traced)],
        // `--smoke` alone: every workload, untraced and traced.
        None => WORKLOADS
            .iter()
            .flat_map(|w| [(w.name.to_string(), false), (w.name.to_string(), true)])
            .collect(),
    };
    let mut all_correct = true;
    for (workload, traced) in runs {
        let started = Instant::now();
        let out = run_one(&workload, &a, traced);
        println!(
            "# {workload} seed {} trace {} {}: {:.1} s, {} cores",
            a.seed,
            traced as u8,
            if a.smoke {
                "SMOKE (not a measurement)"
            } else {
                ""
            },
            started.elapsed().as_secs_f64(),
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
        for (k, v) in &out.notes {
            println!("# {k}: {v}");
        }
        for f in &out.check_failures {
            println!("# CHECK FAILED: {f}");
        }
        if let Some(path) = &a.record {
            if let Err(e) = record(path, &workload, &a, traced, &out) {
                eprintln!("cannot record to {path}: {e}");
                all_correct = false;
            }
        }
        all_correct &= out.correct();
        println!("{}", out.result_line(traced).render());
    }
    if !all_correct {
        std::process::exit(1);
    }
}
