//! perfbench: end-to-end and per-layer benchmark of the EMD Globalizer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn-window --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (a separate run, so probes never perturb the end-to-end timing).
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is non-zero when any correctness gate fails.

mod digest;
mod host;
mod layers;
mod report;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Scale, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds {seconds}: expected a non-negative number"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Checkpoints and recorded digests live here, inside the checkout.
fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: &Scale::FULL,
        work: work_dir(),
    };
    match workloads::run(&args.workload, &ctx) {
        Ok(out) => {
            print!("{}", out.render());
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: a correctness gate failed");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let body = &text[text.find(&format!("\"{section}\"")).expect("section")..];
        let body = &body[..body.find(']').expect("section end")];
        let field = |entry: &str, key: &str| {
            let k = format!("\"{key}\": \"");
            let at = entry.find(&k).expect("field") + k.len();
            entry[at..].split('"').next().expect("value").to_string()
        };
        let mut v: Vec<_> = body
            .split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn tiny_runs_print_every_declared_metric_with_its_unit() {
        let work = work_dir().join(format!("test-{}", std::process::id()));
        for trace in [false, true] {
            let want = declared(if trace { "per_layer" } else { "end_to_end" });
            assert!(!want.is_empty());
            for w in WORKLOADS {
                let ctx = Ctx {
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    scale: &Scale::TINY,
                    work: work.clone(),
                };
                let out = workloads::run(w, &ctx).expect("run");
                let text = out.render();
                assert!(out.correct(), "{w} trace={trace}:\n{text}");
                let mut got: Vec<_> = out
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                got.sort();
                assert_eq!(got, want, "{w} trace={trace}");
                let json = text.lines().last().expect("result line");
                assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
                for (name, unit) in &want {
                    let at = json
                        .find(&format!("\"{name}\": {{\"value\": "))
                        .expect(name);
                    assert!(
                        json[at..].starts_with(&format!("\"{name}\": {{\"value\": "))
                            && json[at..].contains(&format!("\"unit\": \"{unit}\"}}")),
                        "{name} in {json}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&work).expect("clean test scratch");
    }

    #[test]
    fn args_need_every_flag() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = args("--workload deep-drift --seed 3 --seconds 1.5 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("deep-drift", 3, 1.5, true)
        );
        assert!(args("--workload deep-drift --seed 3 --seconds 1").is_err());
        assert!(args("--workload nope --seed 3 --seconds 1 --trace 0").is_err());
        assert!(args("--workload deep-drift --seed 3 --seconds 1 --trace 2").is_err());
    }
}
