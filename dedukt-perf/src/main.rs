//! `dedukt-perf` — the repository's host-clock benchmark.
//!
//! For each workload it synthesizes the input from `--seed`, computes
//! the oracle digest once, and re-executes itself as a child process,
//! one child at a time, to run count jobs through the public library
//! API. Every job is checked against the oracle. With `--trace 0` it
//! reports the end-to-end metrics; with `--trace 1` a separate traced
//! run reports the per-layer metrics. The last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See README.md.

mod child;
mod job;
mod layers;
mod stats;
mod trace;
mod workload;

use child::{ChildArgs, Role};
use job::{read_fastq, Digest};
use stats::{median, quartiles, tail_percentile, verdict, Better, Verdict};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Span;
use workload::{Workload, WORKLOADS};

/// Every end-to-end metric: name, unit, direction, regression bound.
const END_TO_END: [(&str, &str, Better, f64); 3] = [
    ("mkmer_per_s", "Mkmer/s", Better::Higher, 0.25),
    ("peak_rss_mb", "MiB", Better::Lower, 0.10),
    ("setup_s", "s", Better::Lower, 0.25),
];

/// Cold children per workload, each running one job like `dedukt
/// count`: their medians give `setup_s` (start to first job done) and
/// `peak_rss_mb` (`VmHWM`).
const COLD_STARTS: usize = 5;

/// Where runs keep their inputs and bin stores: beside the build
/// output, so a run reads and writes only inside its build tree.
pub fn work_root() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.parent()
        .and_then(Path::parent)
        .expect("the executable lives in a build directory")
        .join("dedukt-perf-work")
}

/// A directory removed (with its contents) when dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Options of a measuring run.
struct Opts {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

/// One reported metric of one workload.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// `q1 .. q3 over n samples`, for the human-readable line.
    note: String,
}

/// What one workload's run produced.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failures: Vec<String>,
    spans: Vec<Span>,
}

/// Parsed stdout of one child process.
#[derive(Default)]
struct ChildReport {
    /// Seconds from spawn to the child's `done` line.
    setup_s: Option<f64>,
    /// `(timed, wall_s, kmers)` of every job that passed.
    jobs: Vec<(bool, f64, u64)>,
    /// `(job index, reason)` of every failed job.
    fails: Vec<(usize, String)>,
    values: Vec<(String, f64)>,
    spans: Vec<(String, Option<usize>, u64, u64)>,
}

impl ChildReport {
    fn parse_line(&mut self, line: &str) -> Result<(), String> {
        let bad = || format!("unexpected child output `{line}`");
        let num = |s: Option<&str>| -> Result<f64, String> {
            s.and_then(|v| v.parse::<f64>().ok()).ok_or_else(bad)
        };
        let mut words = line.split(' ');
        match words.next() {
            Some("job") => {
                words.next();
                let timed = words.next() == Some("1");
                let wall = num(words.next())?;
                let kmers = num(words.next())? as u64;
                self.jobs.push((timed, wall, kmers));
            }
            Some("fail") => {
                let index = num(words.next())? as usize;
                self.fails
                    .push((index, words.collect::<Vec<_>>().join(" ")));
            }
            Some("value" | "metric") => {
                let name = words.next().ok_or_else(bad)?.to_string();
                self.values.push((name, num(words.next())?));
            }
            Some("span") => {
                let name = words.next().ok_or_else(bad)?.to_string();
                let parent = match words.next().ok_or_else(bad)? {
                    "-" => None,
                    p => Some(p.parse().map_err(|_| bad())?),
                };
                let start = num(words.next())? as u64;
                let end = num(words.next())? as u64;
                self.spans.push((name, parent, start, end));
            }
            _ => return Err(bad()),
        }
        Ok(())
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.0 == name).map(|v| v.1)
    }
}

/// Runs the executable as a child in `role` and collects its report.
/// The child is always waited for, whatever its output.
fn run_child(args: Vec<String>) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut report = ChildReport::default();
    let mut parsed = Ok(());
    for line in BufReader::new(stdout).lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                parsed = Err(format!("read child output: {e}"));
                break;
            }
        };
        if line == "done" {
            report.setup_s = Some(start.elapsed().as_secs_f64());
        } else if parsed.is_ok() {
            parsed = report.parse_line(&line);
        }
    }
    let status = child.wait().map_err(|e| format!("wait for child: {e}"))?;
    parsed?;
    if !status.success() {
        return Err(format!("child process failed ({status})"));
    }
    Ok(report)
}

fn spread_note(values: &[f64], what: &str) -> String {
    let (q1, q3) = quartiles(values);
    format!("median of {} {what}; q1 {q1:.6}, q3 {q3:.6}", values.len())
}

/// Generates the workload's input, computes its oracle, and runs the
/// children of one measuring run.
fn run_workload(wl: &'static Workload, opts: &Opts, work: &Path) -> Result<Outcome, String> {
    let dir = work.join(wl.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let fastq = dir.join("input.fastq");
    {
        let reads = wl.dataset(opts.seed).generate();
        let file =
            std::fs::File::create(&fastq).map_err(|e| format!("{}: {e}", fastq.display()))?;
        let mut w = BufWriter::new(file);
        dedukt::dna::fastq::write_fastq(&mut w, &reads)
            .and_then(|()| w.flush())
            .map_err(|e| format!("{}: {e}", fastq.display()))?;
    }
    // The oracle counts what the program receives: the FASTQ, parsed.
    let counting = wl.run_config(&dir).counting;
    let oracle = Digest::of_reference(&read_fastq(&fastq, counting.k)?, &counting);
    let args = |role| child::command_args(role, wl, &fastq, &oracle, &dir, opts.seconds);

    let mut outcome = Outcome::default();
    let absorb = |label: String, report: &ChildReport, outcome: &mut Outcome| {
        outcome.attempted += (report.jobs.len() + report.fails.len()) as u64;
        for (index, reason) in &report.fails {
            outcome.failures.push(format!(
                "workload {}, {label}, job {index}: {reason}",
                wl.name
            ));
        }
    };
    if opts.trace {
        let report = run_child(args(Role::Trace))?;
        absorb("traced child".into(), &report, &mut outcome);
        for (name, unit, _) in layers::PER_LAYER {
            let value = report
                .value(name)
                .ok_or_else(|| format!("workload {}: traced run did not report {name}", wl.name))?;
            outcome.metrics.push(Metric {
                name,
                unit,
                value,
                note: "traced run".into(),
            });
        }
        outcome.spans = report
            .spans
            .into_iter()
            .map(|(name, parent, start_ns, end_ns)| Span {
                workload: wl.name.to_string(),
                name,
                start_ns,
                end_ns,
                parent,
            })
            .collect();
        return Ok(outcome);
    }

    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    for i in 0..COLD_STARTS {
        let report = run_child(args(Role::Cold))?;
        absorb(format!("cold child {i}"), &report, &mut outcome);
        setups.push(report.setup_s.ok_or("cold child never finished its job")?);
        rss.push(
            report
                .value("peak_rss_mb")
                .ok_or("cold child did not report its peak RSS")?,
        );
    }
    let report = run_child(args(Role::Timed))?;
    absorb("timed child".into(), &report, &mut outcome);
    let timed: Vec<(f64, u64)> = report
        .jobs
        .iter()
        .filter(|j| j.0)
        .map(|j| (j.1, j.2))
        .collect();
    if timed.is_empty() {
        return Err(format!("workload {}: no timed job succeeded", wl.name));
    }
    let rates: Vec<f64> = timed.iter().map(|&(w, k)| k as f64 / 1e6 / w).collect();
    let walls: Vec<f64> = timed.iter().map(|j| j.0).collect();
    let mut rate_note = spread_note(&rates, "timed jobs");
    if let Some((pct, wall)) = tail_percentile(&walls).filter(|t| t.0 >= 50.0) {
        write!(rate_note, "; p{pct:.0} job {wall:.4} s").expect("writing to a String");
    }
    let values = [
        (median(&rates), rate_note),
        (median(&rss), spread_note(&rss, "one-job processes")),
        (median(&setups), spread_note(&setups, "cold starts")),
    ];
    outcome.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, ..), (value, note))| Metric {
            name,
            unit,
            value,
            note,
        })
        .collect();
    Ok(outcome)
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn measure(opts: &Opts) -> Result<ExitCode, String> {
    let work = ScratchDir(work_root().join(std::process::id().to_string()));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    let mut results = Vec::new();
    for wl in &opts.workloads {
        println!("# {}: {}", wl.name, wl.why);
        results.push((*wl, run_workload(wl, opts, &work.0)?));
    }
    let prefix = |wl: &Workload| {
        if opts.workloads.len() == 1 {
            String::new()
        } else {
            format!("{}/", wl.name)
        }
    };
    let (mut attempted, mut failures, mut spans) = (0, Vec::new(), Vec::new());
    let mut json_metrics = Vec::new();
    let mut tsv = String::new();
    for (wl, outcome) in &mut results {
        attempted += outcome.attempted;
        failures.append(&mut outcome.failures);
        let base = spans.len();
        spans.extend(outcome.spans.drain(..).map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
        for m in &outcome.metrics {
            if !m.value.is_finite() {
                return Err(format!("workload {}: {} is not finite", wl.name, m.name));
            }
            println!(
                "{:<18} {:<30} {:>16} {:<9} {}",
                wl.name, m.name, m.value, m.unit, m.note
            );
            json_metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&format!("{}{}", prefix(wl), m.name)),
                m.value,
                json_string(m.unit)
            ));
            writeln!(tsv, "{}\t{}\t{}\t{}", wl.name, m.name, m.unit, m.value)
                .expect("writing to a String");
        }
    }
    for f in &failures {
        eprintln!("dedukt-perf: {f}");
    }
    if let Some(path) = &opts.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        f.write_all(tsv.as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &opts.spans {
        std::fs::write(path, trace::to_json(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failures.len(),
        json_metrics.join(", ")
    );
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `((workload, metric), value)` rows of a results file.
type Rows = Vec<((String, String), f64)>;

/// Reads `workload \t metric \t unit \t value` lines appended by `--out`.
fn read_results(path: &Path) -> Result<Rows, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            match f.as_slice() {
                [w, m, _, v] => v
                    .parse()
                    .map(|v| (((*w).to_string(), (*m).to_string()), v))
                    .map_err(|_| format!("{}: bad value in `{l}`", path.display())),
                _ => Err(format!("{}: malformed line `{l}`", path.display())),
            }
        })
        .collect()
}

/// Compares two sets of runs (`--out` files, one value per run and
/// metric, runs paired in file order) by [`stats::verdict`].
fn compare(base: &Path, new: &Path) -> Result<ExitCode, String> {
    let base = read_results(base)?;
    let new = read_results(new)?;
    let mut keys: Vec<&(String, String)> = Vec::new();
    for (k, _) in &base {
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let mut regressions = 0;
    for key in keys {
        let values = |set: &Rows| -> Vec<f64> {
            set.iter()
                .filter(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .collect()
        };
        let (b, n) = (values(&base), values(&new));
        if n.is_empty() {
            continue;
        }
        let e2e = END_TO_END.iter().find(|m| m.0 == key.1);
        let better = match e2e {
            Some(m) => m.2,
            None => match layers::PER_LAYER.iter().find(|m| m.0 == key.1) {
                Some((_, _, "higher")) => Better::Higher,
                _ => Better::Lower,
            },
        };
        let (mb, mn) = (median(&b), median(&n));
        let (q1, q3) = quartiles(&b);
        let (verdict, wins) = verdict(&b, &n, better, e2e.map(|m| m.3));
        if verdict == Verdict::Regression {
            regressions += 1;
        }
        let pairs = b.len().min(n.len());
        println!(
            "{:<18} {:<30} base {mb:.6} (q1 {q1:.6}, q3 {q3:.6}, n {}) new {mn:.6} (n {}) \
             {:+.2}% wins {wins}/{pairs} {verdict:?}",
            key.0,
            key.1,
            b.len(),
            n.len(),
            100.0 * (mn / mb - 1.0)
        );
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

const USAGE: &str = "usage: dedukt-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out RESULTS.tsv] [--spans SPANS.json]\n       \
                     dedukt-perf --compare BASE.tsv NEW.tsv";

enum Invocation {
    Measure(Opts),
    Child(ChildArgs),
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut opts = Opts {
        workloads: WORKLOADS.iter().collect(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: None,
        spans: None,
    };
    let (mut role, mut fastq, mut digest, mut dir) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--compare" {
            let (Some(base), Some(new), None) = (it.next(), it.next(), it.next()) else {
                return Err("--compare takes exactly two result files".into());
            };
            return Ok(Invocation::Compare(base.into(), new.into()));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                let wl = Workload::find(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?;
                opts.workloads = vec![wl];
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--out" => opts.out = Some(value.into()),
            "--spans" => opts.spans = Some(value.into()),
            "--child" => role = Some(Role::parse(value).ok_or("bad --child role")?),
            "--fastq" => fastq = Some(PathBuf::from(value)),
            "--digest" => digest = Some(Digest::parse_arg(value)?),
            "--dir" => dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if let Some(role) = role {
        let (Some(fastq), Some(oracle), Some(dir), [workload]) =
            (fastq, digest, dir, opts.workloads.as_slice())
        else {
            return Err("--child needs --workload, --fastq, --digest and --dir".into());
        };
        return Ok(Invocation::Child(ChildArgs {
            role,
            workload,
            fastq,
            oracle,
            dir,
            seconds: opts.seconds,
        }));
    }
    if opts.spans.is_some() && !opts.trace {
        return Err("--spans needs --trace 1".into());
    }
    Ok(Invocation::Measure(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&args) {
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Invocation::Child(c)) => child::run(&c).map(|()| ExitCode::SUCCESS),
        Ok(Invocation::Compare(base, new)) => compare(&base, &new),
        Ok(Invocation::Measure(opts)) => measure(&opts),
    };
    result.unwrap_or_else(|e| {
        eprintln!("dedukt-perf: {e}");
        ExitCode::from(1)
    })
}
