//! The measuring process. The parent re-executes itself once per role;
//! the child parses only the FASTQ it is handed, runs count jobs, checks
//! each against the oracle digest outside the timed interval, and
//! reports on stdout, one record per line:
//!
//! ```text
//! done                                  first job finished (cold role)
//! job <index> <timed 0|1> <wall_s> <kmers>
//! fail <index> <reason>
//! value <name> <number>                 peak RSS (cold role)
//! metric <name> <number>                per-layer metric (trace role)
//! span <name> <parent|-> <start_ns> <end_ns>
//! ```

use crate::job::{read_fastq, run_job, Digest, JobOutput, STAGES};
use crate::layers::{self, LayerInput};
use crate::stats::median;
use crate::trace::{self_times, Span};
use crate::workload::Workload;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest timed jobs a measuring child runs, however short `--seconds`.
pub const MIN_TIMED_JOBS: usize = 5;
/// Fewest repetitions of each job variant and layer replay when tracing.
pub const TRACE_REPS: usize = 5;

/// What a child process measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// One job in a fresh process: set-up time and peak memory.
    Cold,
    /// A warm-up job, then timed jobs for the window: throughput.
    Timed,
    /// Plain, traced and fully observed jobs, then the layer replays.
    Trace,
}

impl Role {
    /// Command-line spelling.
    pub fn label(self) -> &'static str {
        match self {
            Role::Cold => "cold",
            Role::Timed => "timed",
            Role::Trace => "trace",
        }
    }

    /// Parses [`Role::label`]'s spelling.
    pub fn parse(s: &str) -> Option<Role> {
        [Role::Cold, Role::Timed, Role::Trace]
            .into_iter()
            .find(|r| r.label() == s)
    }
}

/// Everything a child needs; passed on its command line.
pub struct ChildArgs {
    /// What to measure.
    pub role: Role,
    /// Which workload's configuration to count with.
    pub workload: &'static Workload,
    /// The generated input.
    pub fastq: PathBuf,
    /// The oracle digest of that input.
    pub oracle: Digest,
    /// Scratch directory of this workload (bin store, store replay).
    pub dir: PathBuf,
    /// Measuring window in seconds of job time.
    pub seconds: f64,
}

/// Line-oriented reporter that also checks every job against the
/// oracle: an `Err` from the job or a digest that differs from the
/// oracle's is reported as a `fail` line, which the parent counts.
pub struct Out<W: Write> {
    /// Where the records go (stdout in a child).
    pub w: W,
    /// The oracle digest of the input.
    pub oracle: Digest,
    /// Jobs reported so far.
    pub jobs: usize,
}

impl<W: Write> Out<W> {
    fn line(&mut self, text: &str) {
        // A parent that went away cannot read the result anyway.
        let _ = writeln!(self.w, "{text}");
        let _ = self.w.flush();
    }

    /// Checks and reports one job; returns it if it passed.
    pub fn job(&mut self, timed: bool, job: Result<JobOutput, String>) -> Option<JobOutput> {
        let index = self.jobs;
        self.jobs += 1;
        let oracle = self.oracle;
        match job.and_then(|j| oracle.check(&Digest::of_table(&j.merged)).map(|()| j)) {
            Ok(j) => {
                let line = format!(
                    "job {index} {} {} {}",
                    u8::from(timed),
                    j.wall(),
                    j.report.total_kmers
                );
                self.line(&line);
                Some(j)
            }
            Err(e) => {
                self.line(&format!("fail {index} {}", e.replace('\n', " ")));
                None
            }
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// User plus system CPU seconds of this process so far.
fn cpu_secs() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name: state is field 0,
    // utime field 11 and stime field 12, in USER_HZ (100/s) ticks.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// Runs the child's role.
pub fn run(args: &ChildArgs) -> Result<(), String> {
    let mut out = Out {
        w: io::stdout().lock(),
        oracle: args.oracle,
        jobs: 0,
    };
    let rc = args.workload.run_config(&args.dir.join("store"));
    match args.role {
        Role::Cold => {
            let job = run_job(&args.fastq, &rc);
            out.line("done");
            out.job(false, job);
            // One job per process, like `dedukt count`.
            out.line(&format!("value peak_rss_mb {}", peak_rss_mib()?));
        }
        Role::Timed => {
            out.job(false, run_job(&args.fastq, &rc));
            let (mut spent, mut timed) = (0.0, 0);
            while timed < MIN_TIMED_JOBS || spent < args.seconds {
                let t = Instant::now();
                let job = run_job(&args.fastq, &rc);
                spent += t.elapsed().as_secs_f64();
                timed += 1;
                out.job(true, job);
            }
        }
        Role::Trace => trace(args, &mut out)?,
    }
    Ok(())
}

fn ns(at: Instant, epoch: Instant) -> u64 {
    (at - epoch).as_nanos() as u64
}

/// Spans of one traced job: the job, its four stages, and the driver's
/// three stages placed inside `pipeline.run` from the report's wall
/// fields (clamped to it).
fn job_spans(job: &JobOutput, epoch: Instant, workload: &str) -> Vec<Span> {
    let m = job.marks.map(|t| ns(t, epoch));
    let span = |name: &str, start_ns, end_ns, parent| Span {
        workload: workload.to_string(),
        name: name.to_string(),
        start_ns,
        end_ns,
        parent,
    };
    let mut spans = vec![span("job", m[0], m[4], None)];
    for (i, name) in STAGES.iter().enumerate() {
        spans.push(span(name, m[i], m[i + 1], Some(0)));
    }
    let run = 2; // index of `pipeline.run` in `spans`
    let wall = job.report.wall;
    let mut at = m[1];
    for (name, secs) in [
        ("driver.parse", wall.parse),
        ("driver.rounds", wall.rounds),
        ("driver.finish", wall.finish),
    ] {
        let end = (at + (secs * 1e9) as u64).min(m[2]);
        spans.push(span(name, at, end, Some(run)));
        at = end;
    }
    spans
}

fn trace<W: Write>(args: &ChildArgs, out: &mut Out<W>) -> Result<(), String> {
    let epoch = Instant::now();
    let store = args.dir.join("store");
    let rc = args.workload.run_config(&store);
    let mut observed_rc = rc.clone();
    observed_rc.collect_journal = true;
    observed_rc.collect_metrics = true;
    observed_rc.collect_trace = true;

    out.job(false, run_job(&args.fastq, &rc));
    let mut samples: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut push = |name: &'static str, v: f64| match samples.iter_mut().find(|s| s.0 == name) {
        Some(s) => s.1.push(v),
        None => samples.push((name, vec![v])),
    };
    let mut spans: Vec<Span> = Vec::new();
    let mut exact = Vec::new();
    let (mut exchange_bytes, mut exchange_rounds) = (0, 1);
    let (mut reps, mut spent) = (0, 0.0);
    while reps < TRACE_REPS || spent < args.seconds {
        reps += 1;
        let cpu0 = cpu_secs()?;
        let plain = run_job(&args.fastq, &rc);
        let cpu = cpu_secs()? - cpu0;
        if let Some(job) = out.job(true, plain) {
            spent += job.wall();
            push("job.plain_s", job.wall());
            push("job.cpu_util", cpu / job.wall());
            exact = layers::report_metrics(&job.report);
            exchange_bytes = job.report.exchange.bytes;
            exchange_rounds = job.report.exchange.rounds;
        }
        if let Some(job) = out.job(true, run_job(&args.fastq, &rc)) {
            spent += job.wall();
            push("job.traced_s", job.wall());
            for (i, name) in [
                "fastq.parse_s",
                "pipeline.run_s",
                "dump.merge_s",
                "dump.write_s",
            ]
            .into_iter()
            .enumerate()
            {
                push(name, job.stage(i));
            }
            let wall = job.report.wall;
            push("driver.parse_s", wall.parse);
            push("driver.rounds_s", wall.rounds);
            push("driver.finish_s", wall.finish);
            let job_spans = job_spans(&job, epoch, args.workload.name);
            // `pipeline.run` time outside the driver's three stages.
            push("pipeline.self_s", self_times(&job_spans)[2] as f64 / 1e9);
            let base = spans.len();
            spans.extend(job_spans.into_iter().map(|s| Span {
                parent: s.parent.map(|p| p + base),
                ..s
            }));
        }
        let observed = run_job(&args.fastq, &observed_rc);
        if let Some(job) = out.job(true, observed) {
            spent += job.wall();
            push("job.observed_s", job.wall());
        }
    }
    let mut metrics: Vec<(&'static str, f64)> =
        samples.iter().map(|(n, v)| (*n, median(v))).collect();
    let get = |name: &str| metrics.iter().find(|m| m.0 == name).map(|m| m.1);
    if let (Some(plain), Some(traced), Some(observed)) = (
        get("job.plain_s"),
        get("job.traced_s"),
        get("job.observed_s"),
    ) {
        metrics.push(("trace.overhead", traced / plain - 1.0));
        metrics.push(("observe.overhead", observed / plain));
    }
    let (store_bytes, store_files) = layers::scan_dir(&store);
    metrics.push(("store.bytes", store_bytes as f64));
    metrics.push(("store.files", store_files as f64));
    metrics.extend(exact);

    let reads = read_fastq(&args.fastq, rc.counting.k)?;
    let input = LayerInput {
        reads: &reads,
        rc: &rc,
        exchange_bytes,
        exchange_rounds,
        bins: layers::bin_layout(&store, rc.nranks(), exchange_bytes),
        scratch: &args.dir.join("store-replay"),
    };
    metrics.extend(layers::measure(&input, TRACE_REPS)?);

    for (name, value) in metrics {
        out.line(&format!("metric {name} {value}"));
    }
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.line(&format!(
            "span {} {parent} {} {}",
            s.name, s.start_ns, s.end_ns
        ));
    }
    Ok(())
}

/// The arguments that make the parent's executable run `role`.
pub fn command_args(
    role: Role,
    workload: &Workload,
    fastq: &Path,
    oracle: &Digest,
    dir: &Path,
    seconds: f64,
) -> Vec<String> {
    vec![
        "--child".into(),
        role.label().into(),
        "--workload".into(),
        workload.name.into(),
        "--fastq".into(),
        fastq.display().to_string(),
        "--digest".into(),
        oracle.to_arg(),
        "--dir".into(),
        dir.display().to_string(),
        "--seconds".into(),
        seconds.to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedukt::core::{Mode, RunConfig};
    use dedukt::dna::fastq::write_fastq;
    use dedukt::dna::{Dataset, DatasetId, ScalePreset};
    use std::io::BufWriter;

    #[test]
    fn a_tampered_table_is_counted_as_failed() {
        let dir = crate::work_root().join(format!("child-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fastq = dir.join("tiny.fastq");
        let reads = Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny).generate();
        let mut w = BufWriter::new(std::fs::File::create(&fastq).unwrap());
        write_fastq(&mut w, &reads).unwrap();
        w.flush().unwrap();
        drop(w);
        let mut rc = RunConfig::new(Mode::GpuSupermer, 1);
        rc.collect_tables = true;
        let mut out = Out {
            w: Vec::new(),
            oracle: Digest::of_reference(&reads, &rc.counting),
            jobs: 0,
        };

        let job = out
            .job(true, run_job(&fastq, &rc))
            .expect("a clean job passes");
        // The job's spans nest and their self times fit the job.
        let spans = job_spans(&job, job.marks[0], "tiny");
        assert_eq!(spans.len(), 8);
        for s in &spans[1..] {
            let p = &spans[s.parent.unwrap()];
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "{s:?} in {p:?}"
            );
        }
        assert!(self_times(&spans).iter().sum::<u64>() <= spans[0].duration_ns());

        let mut tampered = run_job(&fastq, &rc).unwrap();
        tampered.merged[0].1 += 1;
        assert!(out.job(true, Ok(tampered)).is_none());
        assert!(out.job(false, Err("boom".into())).is_none());
        std::fs::remove_dir_all(&dir).ok();

        // The parent reads one passed and two failed jobs.
        let mut report = crate::ChildReport::default();
        for line in String::from_utf8(out.w).unwrap().lines() {
            report.parse_line(line).unwrap();
        }
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.fails.len(), 2);
        assert_eq!(report.fails[0].0, 1);
        assert!(
            report.fails[0].1.contains("digest mismatch"),
            "{:?}",
            report.fails
        );
        assert_eq!(report.fails[1], (2, "boom".to_string()));
    }

    #[test]
    fn roles_round_trip_their_labels() {
        for role in [Role::Cold, Role::Timed, Role::Trace] {
            assert_eq!(Role::parse(role.label()), Some(role));
        }
        assert_eq!(Role::parse("warm"), None);
    }

    #[test]
    fn proc_readers_report_this_process() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(cpu_secs().unwrap() >= 0.0);
    }
}
