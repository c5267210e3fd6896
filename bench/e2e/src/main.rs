//! `hana-e2e`: the repository's end-to-end benchmark.
//!
//! ```text
//! hana-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//!     ({"correct", "attempted", "failed", "metrics"}): the end-to-end
//!     metrics with --trace 0, the per-layer metrics with --trace 1
//! hana-e2e --seed <n> [--trace 1] [--smoke] [--out <file>]
//!     all five workloads in this process; prints the full report (host
//!     shape, configurations, every metric with unit and sample count)
//! hana-e2e --seed <n> --repeat <N> [--smoke] [--out <file>]
//!     N runs per workload with seeds n, n+1, …, each in its own process;
//!     prints median, quartiles and spread of every end-to-end metric
//! ```
//!
//! See `bench/e2e/README.md` for what each metric means and for whom.

mod engine;
mod gen;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{number, quote, Json, RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Params, Scale};

/// The bound `BENCHMARK.json` puts on an end-to-end metric: the share of
/// the parent's median by which it may get worse.
fn bound_of(metric: &str) -> f64 {
    let listed = Json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json");
    let Some(Json::Arr(metrics)) = listed.get("end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list");
    };
    metrics
        .iter()
        .find(|m| m.get("name") == Some(&Json::Str(metric.into())))
        .and_then(|m| m.get("bound"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no bound for {metric}"))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 0,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                a.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => a.out = Some(PathBuf::from(value("a file")?)),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(a)
}

/// Durable databases and scratch logs go under the build directory, which
/// is inside the checkout and ignored by git.
fn data_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench/e2e/target"));
    target.join("e2e-data").join(std::process::id().to_string())
}

fn params(a: &Args, trace: bool) -> Params {
    Params {
        seed: a.seed,
        seconds: a.seconds.unwrap_or(if a.smoke { 1.0 } else { 10.0 }),
        trace,
        scale: if a.smoke { Scale::SMOKE } else { Scale::FULL },
        // The traced run reports no set-up time, so it sets up once.
        setup_reps: if a.smoke || trace { 1 } else { 3 },
        data_dir: data_dir(),
        trace_dir: a
            .out
            .as_ref()
            .filter(|_| trace)
            .map(|o| o.parent().map(PathBuf::from).unwrap_or_default()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hana-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let r = if args.repeat > 0 {
        repeat(&args)
    } else if let Some(w) = &args.workload {
        one(&args, w)
    } else {
        all(&args)
    };
    let _ = std::fs::remove_dir_all(data_dir());
    match r {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hana-e2e: {e}");
            ExitCode::from(1)
        }
    }
}

fn report_failures(workload: &str, r: &RunResult) {
    for f in &r.check_failures {
        eprintln!("hana-e2e: {workload}: check failed: {f}");
    }
    if r.failed > 0 {
        eprintln!(
            "hana-e2e: {workload}: {} of {} operations failed",
            r.failed, r.attempted
        );
    }
}

/// Driver mode: one workload, one result line.
fn one(args: &Args, workload: &str) -> Result<bool, String> {
    let r = workloads::run(workload, &params(args, args.trace))?;
    report_failures(workload, &r);
    if !args.trace {
        for (name, _) in END_TO_END {
            if !r.metrics.contains_key(name) {
                return Err(format!("{workload} did not measure {name}"));
            }
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", r.contract_line(names));
    Ok(r.correct())
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Host shape and resolved configurations, as JSON object members.
fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "\"host\": {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}},\n  \"config\": {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        quote(&cpu),
        quote(&first_line("rustc", &["--version"])),
        quote(&first_line("git", &["rev-parse", "HEAD"])),
        quote(&engine::resolved_configs()),
    )
}

fn emit(args: &Args, text: &str) -> Result<(), String> {
    match &args.out {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("hana-e2e: wrote {}", path.display());
        }
        None => println!("{text}"),
    }
    Ok(())
}

/// Every workload in this process: untraced, then traced if asked.
fn all(args: &Args) -> Result<bool, String> {
    if let Some(dir) = args.out.as_ref().and_then(|o| o.parent()) {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    let mut ok = true;
    let mut body = Vec::new();
    for w in WORKLOADS {
        // The peak resident size is the process's; start each workload's
        // from where the process stands now.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        eprintln!("hana-e2e: {w} …");
        let plain = workloads::run(w, &params(args, false))?;
        report_failures(w, &plain);
        ok &= plain.correct();
        let mut entry = format!(
            "    {}: {{\n      \"untraced\": {}",
            quote(w),
            plain.report_json("      ")
        );
        if args.trace {
            let traced = workloads::run(w, &params(args, true))?;
            report_failures(w, &traced);
            ok &= traced.correct();
            entry.push_str(&format!(
                ",\n      \"traced\": {}",
                traced.report_json("      ")
            ));
        }
        entry.push_str("\n    }");
        body.push(entry);
    }
    let p = params(args, false);
    let text = format!(
        "{{\n  \"benchmark\": \"hana-e2e\", \"seed\": {}, \"seconds\": {}, \"smoke\": {},\n  {},\n  \"workloads\": {{\n{}\n  }},\n  \"claim\": null\n}}",
        args.seed,
        number(p.seconds),
        args.smoke,
        host_json(),
        body.join(",\n")
    );
    emit(args, &text)?;
    Ok(ok)
}

/// The repeatability tool: what the driver does to accept the benchmark.
/// Each run is a fresh process of this program, as the driver's are.
fn repeat(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = params(args, false).seconds;
    let selected: Vec<&str> = WORKLOADS
        .into_iter()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == *w))
        .collect();
    let mut ok = true;
    let mut rows = Vec::new();
    for w in selected {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for i in 0..args.repeat {
            let seed = args.seed + i as u64;
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let v = Json::parse(line).map_err(|e| {
                format!(
                    "{w} seed {seed}: no result ({e}): {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
            let correct = v.get("correct") == Some(&Json::Bool(true)) && out.status.success();
            ok &= correct;
            eprintln!("hana-e2e: {w} seed {seed}: correct={correct}");
            if !correct {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
            }
            for (name, _) in END_TO_END {
                let x = v
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("{w} seed {seed}: no {name}"))?;
                values.entry(name).or_default().push(x);
            }
        }
        for (name, unit) in END_TO_END {
            let v = &values[name];
            let med = stats::median_f64(v);
            let (q1, q3) = stats::quartiles(v);
            let (min, max) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let bound = bound_of(name);
            let spread = (q3 - q1) / med;
            eprintln!(
                "{w:17} {name:13} median {med:>14.4} {unit:6} q1 {q1:>14.4} q3 {q3:>14.4} iqr/median {:>6.2}% range/median {:>6.2}% bound {:>4.1}%{}",
                spread * 100.0,
                (max - min) / med * 100.0,
                bound * 100.0,
                if spread > bound / 3.0 { "  <-- above a third of the bound" } else { "" },
            );
            rows.push(format!(
                "    {{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"iqr_over_median\": {}, \"range_over_median\": {}, \"bound\": {}, \"values\": [{}]}}",
                quote(w),
                quote(name),
                quote(unit),
                number(med),
                number(q1),
                number(q3),
                number(spread),
                number((max - min) / med),
                number(bound),
                v.iter().map(|x| number(*x)).collect::<Vec<_>>().join(", ")
            ));
        }
    }
    let text = format!(
        "{{\n  \"benchmark\": \"hana-e2e\", \"first_seed\": {}, \"runs_per_workload\": {}, \"seconds\": {}, \"smoke\": {},\n  {},\n  \"end_to_end\": [\n{}\n  ],\n  \"claim\": null\n}}",
        args.seed,
        args.repeat,
        number(seconds),
        args.smoke,
        host_json(),
        rows.join(",\n")
    );
    emit(args, &text)?;
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `--smoke` end to end: every workload runs with its checks, untraced
    /// and traced; every workload measures every end-to-end metric; every
    /// per-layer metric is measured by some workload; and the workloads that
    /// are meant to bypass a layer really leave its metrics at zero.
    #[test]
    fn smoke_runs_every_workload_and_emits_every_metric() {
        let args = Args {
            workload: None,
            seed: 7,
            seconds: None,
            trace: false,
            smoke: true,
            repeat: 0,
            out: None,
        };
        let data_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/e2e-test-data");
        let with_dir = |trace: bool| Params {
            data_dir: data_dir.clone(),
            ..params(&args, trace)
        };
        let mut emitted = BTreeSet::new();
        for w in WORKLOADS {
            let plain = workloads::run(w, &with_dir(false)).expect(w);
            assert!(plain.correct(), "{w}: {:?}", plain.check_failures);
            for (name, _) in END_TO_END {
                assert!(plain.metrics[name].value > 0.0, "{w} {name}");
            }
            let traced = workloads::run(w, &with_dir(true)).expect(w);
            assert!(traced.correct(), "{w} traced: {:?}", traced.check_failures);
            let zero = |prefix: &str| {
                for (name, m) in traced.metrics.iter().filter(|(n, _)| n.starts_with(prefix)) {
                    assert_eq!(m.value, 0.0, "{w} must bypass {name}");
                }
            };
            if w != "oltp_durable" {
                zero("persist.");
            }
            if w == "olap_main" {
                zero("txn.");
                zero("merge.");
            }
            emitted.extend(traced.metrics.keys().copied());
            emitted.extend(plain.metrics.keys().copied());
        }
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(emitted.contains(name), "no workload measures {name}");
        }
        assert!(END_TO_END.iter().all(|(name, _)| bound_of(name) <= 0.25));
        let _ = std::fs::remove_dir_all(data_dir);
    }
}
