//! `mcast` — route multicasts, run flit-level wormhole simulations, and
//! replay the dissertation's deadlock scenarios from the command line.
//!
//! ```text
//! mcast route    --topology mesh:6x6 --algorithm dual-path --source 15 --dests 0,5,30,35
//! mcast route    --topology cube:4  --algorithm multi-path --source 0b1100 --dests 0b0100,0b1111
//! mcast simulate --topology mesh:8x8 --algorithm multi-path --interarrival-us 400 --dests 10
//! mcast run      --spec examples/spec_fig7_5.json
//! mcast deadlock --scenario fig6_4 --algorithm xfirst-tree
//! mcast help
//! ```

mod args;
mod commands;

use args::Args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    let result = commands::check_flags(&parsed).and_then(|()| match parsed.command.as_str() {
        "route" => commands::route(&parsed),
        "simulate" => commands::simulate(&parsed),
        "sweep" => commands::sweep(&parsed),
        "run" => commands::run(&parsed),
        "deadlock" => commands::deadlock(&parsed),
        "fault-sweep" => commands::fault_sweep(&parsed),
        "trace" => commands::trace(&parsed),
        "metrics" => commands::metrics(&parsed),
        "verify" => commands::verify(&parsed),
        "topo" => commands::topo(&parsed),
        "serve" => commands::serve(&parsed),
        "submit" => commands::submit(&parsed),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(args::CliError::Usage(format!(
            "unknown subcommand {other:?}"
        ))),
    });
    // Usage errors re-print the help block and exit 2; runtime errors
    // (missing spec file, failed run, broken invariant) print only the
    // actionable message and exit 1.
    match result {
        Ok(()) => {}
        Err(args::CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
        Err(args::CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
