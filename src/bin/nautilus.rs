//! `nautilus` — command-line driver for the reproduction.
//!
//! ```text
//! nautilus run   --workload ftr2 --strategy nautilus --scale tiny [--cycles N] [--models N]
//! nautilus plan  --workload ftr2 --scale paper
//! nautilus show  --workload ftu  --scale tiny
//! ```
//!
//! * `run`  — executes a model-selection session over labeling cycles
//!   (real training at tiny scale, cost simulation at paper scale) and
//!   prints per-cycle reports.
//! * `plan` — runs only the optimizer and prints the chosen materialized
//!   set, the fused units, and their reuse-plan actions.
//! * `show` — prints a Keras-style summary of one candidate per distinct
//!   architecture in the workload.

use nautilus_repro::core::mat_opt::NodeAction;
use nautilus_repro::core::session::{CycleInput, ModelSelection};
use nautilus_repro::core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_repro::core::{BackendKind, Strategy, SystemConfig};
use std::collections::BTreeMap;

fn usage() -> ! {
    eprintln!(
        "usage: nautilus <run|plan|show> --workload <ftr1|ftr2|ftr3|atr|ftu> \
         [--strategy <current|matall|matonly|fuseonly|nautilus>] \
         [--scale <tiny|paper>] [--cycles N] [--models N] [--format dot]"
    );
    std::process::exit(2);
}

struct Args {
    command: String,
    options: BTreeMap<String, String>,
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else { usage() };
    let mut options = BTreeMap::new();
    while let Some(flag) = argv.next() {
        let Some(name) = flag.strip_prefix("--") else { usage() };
        let Some(value) = argv.next() else { usage() };
        options.insert(name.to_string(), value);
    }
    Args { command, options }
}

/// A scratch directory for one invocation's checkpoints and feature store,
/// unique to this process and removed when the command ends, so concurrent
/// invocations never touch each other's files.
struct Workdir(std::path::PathBuf);

impl Workdir {
    fn new(command: &str) -> Workdir {
        let name = format!("nautilus-cli-{command}-{}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir); // left by a crashed process of the same id
        Workdir(dir)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn parse_workload(s: &str) -> WorkloadKind {
    match s {
        "ftr1" => WorkloadKind::Ftr1,
        "ftr2" => WorkloadKind::Ftr2,
        "ftr3" => WorkloadKind::Ftr3,
        "atr" => WorkloadKind::Atr,
        "ftu" => WorkloadKind::Ftu,
        _ => usage(),
    }
}

fn parse_strategy(s: &str) -> Strategy {
    match s {
        "current" => Strategy::CurrentPractice,
        "matall" => Strategy::MatAll,
        "matonly" => Strategy::MatOnly,
        "fuseonly" => Strategy::FuseOnly,
        "nautilus" => Strategy::Nautilus,
        _ => usage(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
    let kind = parse_workload(args.options.get("workload").map(String::as_str).unwrap_or_else(|| usage()));
    let scale = match args.options.get("scale").map(String::as_str).unwrap_or("tiny") {
        "tiny" => Scale::Tiny,
        "paper" => Scale::Paper,
        _ => usage(),
    };
    let strategy =
        parse_strategy(args.options.get("strategy").map(String::as_str).unwrap_or("nautilus"));
    let spec = WorkloadSpec { kind, scale };
    let mut candidates = spec.candidates().map_err(std::io::Error::other)?;
    if let Some(n) = args.options.get("models") {
        candidates.truncate(n.parse()?);
    }
    let cycles: usize = match args.options.get("cycles") {
        Some(c) => c.parse()?,
        None => spec.cycles(),
    };
    let config = match scale {
        Scale::Tiny => SystemConfig::tiny(),
        Scale::Paper => SystemConfig::default(),
    };
    let backend = match scale {
        Scale::Tiny => BackendKind::Real,
        Scale::Paper => BackendKind::Simulated,
    };

    match args.command.as_str() {
        "show" => {
            let dot = args.options.get("format").map(String::as_str) == Some("dot");
            // One summary per distinct architecture (grid points that differ
            // only in lr/batch/epochs share a graph).
            let mut seen = std::collections::HashSet::new();
            for c in &candidates {
                let arch = c.name.split("-b").next().unwrap_or(&c.name).to_string();
                if seen.insert(arch.clone()) {
                    if dot {
                        println!("// {arch}");
                        println!("{}", nautilus_repro::dnn::summary::to_dot(&c.graph));
                    } else {
                        println!("== {arch} ==");
                        println!("{}", nautilus_repro::dnn::summary::summarize(&c.graph));
                    }
                }
            }
        }
        "plan" => {
            let workdir = Workdir::new("plan");
            let session =
                ModelSelection::new(candidates, config, strategy, backend, &workdir.0)?;
            let init = session.init_report();
            println!(
                "{} candidates -> {} training units, {} materialized layers, theoretical speedup {:.2}x",
                session.candidates().len(),
                init.num_units,
                init.num_materialized,
                init.theoretical_speedup
            );
            if let Some(m) = session.milp_stats() {
                println!(
                    "materialization MILP: {} vars, {} constraints, solved in {:?} ({} B&B nodes)",
                    m.num_vars, m.num_constraints, m.elapsed, m.nodes
                );
            }
            for (unit, plan) in session.units() {
                let members: Vec<&str> = unit
                    .members
                    .iter()
                    .map(|&m| session.candidates()[m].name.as_str())
                    .collect();
                println!(
                    "\nunit (batch {}, epochs {}, est. peak mem {:.2} GiB): {members:?}",
                    unit.batch_size,
                    unit.epochs,
                    unit.memory.total() as f64 / (1u64 << 30) as f64,
                );
                let mut counts = BTreeMap::new();
                for a in unit.plan.actions.values() {
                    *counts.entry(format!("{a:?}")).or_insert(0usize) += 1;
                }
                println!("  actions: {counts:?}; plan graph {} nodes, {} feature loads",
                    plan.graph.len(), plan.materialized_keys().len());
                for (&m, &a) in &unit.plan.actions {
                    if a == NodeAction::Loaded && !session.multi().node(m).is_input {
                        println!("  load <- {}", session.multi().node(m).name);
                    }
                }
            }
        }
        "run" => {
            let workdir = Workdir::new("run");
            let mut session =
                ModelSelection::new(candidates, config, strategy, backend, &workdir.0)?;
            let (tr, va) = spec.records_per_cycle();
            let pool = match (scale, kind) {
                (Scale::Tiny, WorkloadKind::Ftu) => {
                    Some(spec.image_config().generate(cycles * (tr + va)))
                }
                (Scale::Tiny, _) => Some(spec.ner_config().generate(cycles * (tr + va))),
                (Scale::Paper, _) => None,
            };
            for cycle in 0..cycles {
                let input = match &pool {
                    Some(p) => {
                        let batch = p.range(cycle * (tr + va), (cycle + 1) * (tr + va));
                        let (train, valid) = batch.split_at(tr);
                        CycleInput::Real { train, valid }
                    }
                    None => CycleInput::Virtual { n_train: tr, n_valid: va },
                };
                let r = session.fit(input)?;
                match &r.best {
                    Some((name, acc)) => println!(
                        "cycle {:2}: {:5} records, {:8.2}s, best {} ({:.1}%)",
                        r.cycle,
                        r.train_records,
                        r.cycle_secs,
                        name,
                        acc * 100.0
                    ),
                    None => println!(
                        "cycle {:2}: {:5} records, {:8.2}s (simulated)",
                        r.cycle, r.train_records, r.cycle_secs
                    ),
                }
            }
            let s = session.stats();
            println!(
                "\ntotal: {:.2}s ({:.0}% compute utilization, {:.2} GB read, {:.2} GB written)",
                s.elapsed_secs,
                s.utilization() * 100.0,
                (s.disk_read_bytes + s.cached_read_bytes) as f64 / 1e9,
                s.disk_write_bytes as f64 / 1e9
            );
        }
        _ => usage(),
    }
    Ok(())
}
