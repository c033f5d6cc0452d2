//! Chaos harness CLI.
//!
//! ```text
//! chaos --quick                     # CI gate: small sweep across all protocols
//! chaos --seeds 2000                # nightly sweep
//! chaos --seed 42 --protocol raft   # replay one run (bit-identical trace)
//! chaos --seed 42 --minimize        # shrink a failing schedule before printing
//! chaos --out chaos-failures        # also write failing traces to files
//! chaos --disk --seeds 500          # sweep with the disk-fault profile
//! chaos --disk-seeds 50             # extra disk-fault sweep after the main one
//! chaos --txn-seeds 300             # cross-shard 2PC sweep (nightly depth)
//! chaos --txn-seeds 1 --base-seed 42 --minimize  # replay + shrink one kv seed
//! ```
//!
//! Exit status is 0 iff no run violated an invariant.

use chaos::{minimize, render_report, run, run_schedule, Bug, ChaosConfig, ChaosReport};
use chaos::{Counters, ScheduledFault, KV_WORKLOADS};
use cluster::ProtocolKind;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// `--protocol` names (the first is the trace-file tag); all but the last
/// are swept by default.
const PROTOCOLS: [(&[&str], ProtocolKind); 6] = [
    (
        &["omni", "omnipaxos", "omni-paxos"],
        ProtocolKind::OmniPaxos,
    ),
    (&["raft"], ProtocolKind::Raft),
    (&["raft-pvcq", "raftpvcq"], ProtocolKind::RaftPvCq),
    (
        &["multipaxos", "multi-paxos", "mp"],
        ProtocolKind::MultiPaxos,
    ),
    (&["vr"], ProtocolKind::Vr),
    (&["omni-lm"], ProtocolKind::OmniPaxosLeaderMigration),
];

/// The seed-count flags and their `--quick` sizes: the CI gate, a small
/// sweep across every protocol and kv workload.
const SEED_FLAGS: [(&str, u64); 6] = [
    ("--seeds", 20),
    ("--disk-seeds", 10),
    ("--kv-seeds", 4),
    ("--read-seeds", 4),
    ("--shard-seeds", 4),
    ("--txn-seeds", 4),
];

struct Opts {
    /// Seeds per sweep, by flag (see [`SEED_FLAGS`]).
    seeds: BTreeMap<&'static str, u64>,
    base_seed: u64,
    single_seed: Option<u64>,
    protocol: Option<ProtocolKind>,
    nodes: usize,
    minimize: bool,
    out: Option<PathBuf>,
    bug: bool,
    /// Run the primary sweep (and any `--seed` replay) under the
    /// disk-fault schedule profile.
    disk: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--quick] [--seeds N] [--base-seed S] [--seed S] \
         [--protocol omni|omni-lm|raft|raft-pvcq|multipaxos|vr] [--nodes N] \
         [--minimize] [--out DIR] [--bug] [--kv-seeds N] [--shard-seeds N] \
         [--txn-seeds N] [--read-seeds N] [--disk] [--disk-seeds N]"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        seeds: BTreeMap::new(),
        base_seed: 1,
        single_seed: None,
        protocol: None,
        nodes: 5,
        minimize: false,
        out: None,
        bug: false,
        disk: false,
    };
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    let next_num = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs a numeric argument");
            usage();
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--base-seed" => opts.base_seed = next_num(&mut args, "--base-seed"),
            "--seed" => opts.single_seed = Some(next_num(&mut args, "--seed")),
            "--protocol" => {
                let v = args.next().unwrap_or_else(|| usage());
                let Some((_, p)) = PROTOCOLS.iter().find(|(names, _)| names.contains(&&*v)) else {
                    eprintln!("unknown protocol: {v}");
                    usage();
                };
                opts.protocol = Some(*p);
            }
            "--nodes" => opts.nodes = next_num(&mut args, "--nodes") as usize,
            "--minimize" => opts.minimize = true,
            "--out" => opts.out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--bug" => opts.bug = true,
            "--disk" => opts.disk = true,
            "--help" | "-h" => usage(),
            other => {
                let Some(&(flag, _)) = SEED_FLAGS.iter().find(|(f, _)| *f == other) else {
                    eprintln!("unknown flag: {other}");
                    usage();
                };
                opts.seeds.insert(flag, next_num(&mut args, flag));
            }
        }
    }
    for (flag, n) in SEED_FLAGS {
        let seeds = opts.seeds.entry(flag).or_default();
        if quick && *seeds == 0 {
            *seeds = n;
        }
    }
    if opts.single_seed.is_none() && opts.seeds.values().all(|&n| n == 0) {
        opts.seeds.insert("--seeds", 100);
    }
    opts
}

/// One sweep: a protocol under a fault profile, or a kv workload.
struct Sweep<'a> {
    label: String,
    /// Tag of its failing seeds' trace files.
    slug: String,
    /// The statistics its summary shows.
    headline: &'static [&'static str],
    seeds: Vec<u64>,
    run: Runner<'a>,
}

/// Runs a seed under its generated schedule, or replays a schedule.
type Runner<'a> = Box<dyn Fn(u64, Option<&[ScheduledFault]>) -> ChaosReport + 'a>;

fn main() {
    let opts = parse_opts();
    if let Some(dir) = &opts.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out dir {}: {e}", dir.display());
            std::process::exit(2);
        }
    }

    let range = |flag: &str| {
        let n = opts.seeds[flag];
        (opts.base_seed..opts.base_seed + n).collect::<Vec<u64>>()
    };
    let primary = (opts.single_seed).map_or_else(|| range("--seeds"), |s| vec![s]);
    let mut sweeps: Vec<Sweep> = Vec::new();
    for (disk, seeds) in [(opts.disk, primary), (true, range("--disk-seeds"))] {
        let all = PROTOCOLS[..5].iter().map(|&(_, p)| p).collect();
        for protocol in opts.protocol.map_or(all, |p| vec![p]) {
            let mut cfg = ChaosConfig::new(protocol, 0);
            cfg.n = opts.nodes;
            cfg.disk_faults = disk;
            if opts.bug {
                cfg.bug = Some(Bug::AckBeforePersist);
            }
            let names = PROTOCOLS
                .iter()
                .find(|&&(_, p)| p == protocol)
                .expect("listed")
                .0;
            sweeps.push(Sweep {
                label: format!("{}{}", protocol.name(), if disk { " [disk]" } else { "" }),
                slug: format!("{}{}", if disk { "disk-" } else { "" }, names[0]),
                headline: &["decided_positions"],
                seeds: seeds.clone(),
                run: Box::new(move |seed, schedule| {
                    let cfg = ChaosConfig {
                        seed,
                        ..cfg.clone()
                    };
                    schedule.map_or_else(|| run(&cfg), |s| run_schedule(&cfg, s))
                }),
            });
        }
    }
    for w in KV_WORKLOADS {
        sweeps.push(Sweep {
            label: w.name.to_string(),
            slug: w.slug.to_string(),
            headline: w.headline,
            seeds: range(w.flag),
            run: Box::new(move |seed, schedule| {
                schedule.map_or_else(|| w.run(seed), |s| w.run_schedule(seed, s))
            }),
        });
    }

    let started = Instant::now();
    let mut failures = 0u64;
    let mut total_runs = 0u64;
    for sweep in sweeps.iter().filter(|s| !s.seeds.is_empty()) {
        let t0 = Instant::now();
        let mut failed = 0u64;
        let mut totals = Counters::default();
        for &seed in &sweep.seeds {
            let report = (sweep.run)(seed, None);
            total_runs += 1;
            totals.merge(&report.stats);
            if report.violation.is_none() {
                if sweep.seeds.len() <= 8 {
                    println!("{} seed {seed}: ok ({})", sweep.label, report.stats);
                }
                continue;
            }
            failures += 1;
            failed += 1;
            let mut rendered = render_report(&report);
            if opts.minimize {
                let fails = |s: &[ScheduledFault]| (sweep.run)(seed, Some(s)).violation.is_some();
                let reduced = minimize(&report.schedule, fails);
                rendered.push_str("\n--- minimized schedule ---\n");
                rendered.push_str(&render_report(&(sweep.run)(seed, Some(&reduced))));
            }
            eprintln!("{rendered}");
            if let Some(dir) = &opts.out {
                let path = dir.join(format!("{}-seed{seed}.txt", sweep.slug));
                match std::fs::write(&path, &rendered) {
                    Ok(()) => eprintln!("trace written to {}", path.display()),
                    Err(e) => eprintln!("cannot write {}: {e}", path.display()),
                }
            }
        }
        let headline: Vec<String> = (sweep.headline.iter())
            .map(|k| format!("{k}={}", totals.get(k)))
            .collect();
        println!(
            "{:<34} {:>5} runs  {:>3} failed  {:>30}  {:>6.1}s",
            sweep.label,
            sweep.seeds.len(),
            failed,
            headline.join(" "),
            t0.elapsed().as_secs_f64()
        );
    }

    println!(
        "chaos: {total_runs} runs, {failures} failed, {:.1}s total",
        started.elapsed().as_secs_f64()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
