//! Synthetic trace generator CLI.
//!
//! Produces a trace in the combined CSV schema on stdout (or a file), for
//! feeding experiments, external tools, or regression fixtures:
//!
//! ```sh
//! cargo run -p cc-trace --bin tracegen -- \
//!     --functions 200 --minutes 480 --seed 42 --zipf 0.9 --out trace.csv
//! ```

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

use cc_trace::{azure, SyntheticTrace};
use cc_types::SimDuration;

struct Options {
    functions: usize,
    minutes: u64,
    seed: u64,
    zipf: f64,
    diurnal: f64,
    no_peaks: bool,
    out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            functions: 100,
            minutes: 480,
            seed: 0,
            zipf: 0.0,
            diurnal: 1.0,
            no_peaks: false,
            out: None,
        }
    }
}

fn usage() {
    eprintln!(
        "usage: tracegen [--functions N] [--minutes N] [--seed N] [--zipf S] \
         [--diurnal R] [--no-peaks] [--out FILE]"
    );
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--functions" => {
                opts.functions = value("--functions")?
                    .parse()
                    .map_err(|e| format!("bad --functions: {e}"))?
            }
            "--minutes" => {
                opts.minutes = value("--minutes")?
                    .parse()
                    .map_err(|e| format!("bad --minutes: {e}"))?;
                if SimDuration::checked_from_mins(opts.minutes).is_none() {
                    return Err(format!(
                        "bad --minutes: {} overflows the simulated clock",
                        opts.minutes
                    ));
                }
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--zipf" => {
                opts.zipf = value("--zipf")?
                    .parse()
                    .map_err(|e| format!("bad --zipf: {e}"))?
            }
            "--diurnal" => {
                opts.diurnal = value("--diurnal")?
                    .parse()
                    .map_err(|e| format!("bad --diurnal: {e}"))?
            }
            "--no-peaks" => opts.no_peaks = true,
            "--out" => opts.out = Some(value("--out")?),
            "--help" | "-h" => {
                usage();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            usage();
            return ExitCode::FAILURE;
        }
    };

    let mut builder = SyntheticTrace::builder();
    builder
        .functions(opts.functions)
        .duration(SimDuration::from_mins(opts.minutes))
        .seed(opts.seed);
    if opts.zipf > 0.0 {
        builder.zipf_popularity(opts.zipf);
    }
    if opts.diurnal > 1.0 {
        builder.diurnal(opts.diurnal);
    }
    if opts.no_peaks {
        builder.without_peaks();
    }
    let trace = builder.build();
    eprintln!(
        "generated {} functions, {} invocations over {:.0} minutes",
        trace.functions().len(),
        trace.invocations().len(),
        trace.duration().as_mins_f64()
    );

    let result = match &opts.out {
        Some(path) => match File::create(path) {
            Ok(file) => azure::write_combined_csv(&trace, BufWriter::new(file)),
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let stdout = io::stdout();
            let mut lock = stdout.lock();
            let r = azure::write_combined_csv(&trace, &mut lock);
            let _ = lock.flush();
            r
        }
    };
    if let Err(e) = result {
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
