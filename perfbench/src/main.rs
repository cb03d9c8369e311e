//! One phase of one benchmark workload per process; `run.py` runs the
//! phases and merges what they print.
//!
//! ```text
//! mcast-perfbench <gate|measure|trace> --workload <name> --seed <n>
//!                 --seconds <s> --work-dir <dir>
//! ```
//!
//! `gate` runs the correctness checks that need their own process,
//! `measure` the untraced timed phase (end-to-end metrics), and `trace`
//! the traced phase (per-layer metrics). Each prints one JSON line.

mod dynamic;
mod report;
mod serve_mix;
mod static_routes;
mod trace;

use std::path::PathBuf;

use report::{Report, END_TO_END, PER_LAYER};
use trace::{CountingAlloc, Tracer};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

pub struct Args {
    phase: String,
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub work_dir: PathBuf,
}

const WORKLOADS: [&str; 4] = [
    "paper_dynamic",
    "stream_cube16",
    "static_routes",
    "serve_mix",
];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let phase = argv.first().cloned().ok_or("missing phase")?;
    let flag = |name: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or(format!("missing {name}"))
    };
    let args = Args {
        phase,
        workload: flag("--workload")?,
        seed: flag("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: flag("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        work_dir: PathBuf::from(flag("--work-dir")?),
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !["gate", "measure", "trace"].contains(&args.phase.as_str()) {
        return Err(format!("unknown phase {:?}", args.phase));
    }
    if args.seed >= 1 << 53 {
        return Err("--seed must be below 2^53".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mcast-perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.work_dir).expect("work dir can be created");
    let mut rep = Report::default();
    let mut tracer = Tracer::new();
    let names = match args.phase.as_str() {
        "gate" => {
            match args.workload.as_str() {
                "paper_dynamic" => dynamic::gate_paper(&args, &mut rep),
                "stream_cube16" => dynamic::gate_stream(&args, &mut rep),
                "static_routes" => static_routes::gate(&args, &mut rep),
                _ => serve_mix::gate(&args, &mut rep),
            }
            &[][..]
        }
        "measure" => {
            match args.workload.as_str() {
                "paper_dynamic" => dynamic::measure_paper(&args, &mut rep),
                "stream_cube16" => dynamic::measure_stream(&args, &mut rep),
                "static_routes" => static_routes::measure(&args, &mut rep),
                _ => serve_mix::measure(&args, &mut rep),
            }
            rep.metric("peak_rss_mb", trace::peak_rss_mb());
            END_TO_END
        }
        _ => {
            let t = &mut tracer;
            match args.workload.as_str() {
                "paper_dynamic" => dynamic::trace_paper(&args, &mut rep, t),
                "stream_cube16" => dynamic::trace_stream(&args, &mut rep, t),
                "static_routes" => static_routes::trace(&args, &mut rep, t),
                _ => serve_mix::trace(&args, &mut rep, t),
            }
            let spans = args.work_dir.join("spans.csv");
            if let Err(e) = tracer.write_spans(&spans) {
                rep.fail(format!("cannot write {}: {e}", spans.display()));
            }
            PER_LAYER
        }
    };
    rep.info("runqueue_wait_s", trace::runqueue_wait_s());
    println!("{}", rep.to_json(names));
}
