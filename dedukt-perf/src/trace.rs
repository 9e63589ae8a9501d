//! Spans recorded around the calls a job makes into each layer.
//!
//! Spans are kept in memory and written once, as a JSON array of
//! `{"workload", "name", "start_ns", "end_ns", "parent"}` objects, where
//! `parent` is the index of the enclosing span in the same array (or
//! `null` for a job's root span).

use std::fmt::Write as _;

/// One timed interval of one layer call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Workload the span was recorded under.
    pub workload: String,
    /// Layer call, e.g. `fastq.parse`.
    pub name: String,
    /// Start, in nanoseconds from the recording process's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds from the same epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children may overlap each other; the
/// union is subtracted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let (lo, hi) = (lo.max(reach), hi.min(s.end_ns));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Serializes spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "  {{\"workload\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
            s.workload, s.name, s.start_ns, s.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out.push(']');
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Just enough JSON to read [`to_json`]'s output back: an array of
    /// flat objects whose values are strings without escapes, unsigned
    /// integers, or `null`.
    fn parse_spans(text: &str) -> Result<Vec<Span>, String> {
        let body = text.trim();
        let body = body
            .strip_prefix('[')
            .and_then(|b| b.strip_suffix(']'))
            .ok_or("not a JSON array")?;
        let mut spans = Vec::new();
        for obj in body.split('}').map(str::trim).filter(|o| !o.is_empty()) {
            let obj = obj.trim_start_matches(',').trim();
            let obj = obj.strip_prefix('{').ok_or("object must open with {")?;
            let (mut workload, mut name, mut start, mut end, mut parent) =
                (None, None, None, None, None);
            for field in obj.split(',') {
                let (key, value) = field.split_once(':').ok_or("field without ':'")?;
                let key = key.trim().trim_matches('"');
                let value = value.trim();
                let string = || {
                    value
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .map(str::to_string)
                        .ok_or(format!("{key} is not a string"))
                };
                let number = || value.parse::<u64>().map_err(|e| format!("{key}: {e}"));
                match key {
                    "workload" => workload = Some(string()?),
                    "name" => name = Some(string()?),
                    "start_ns" => start = Some(number()?),
                    "end_ns" => end = Some(number()?),
                    "parent" => {
                        parent = Some(if value == "null" {
                            None
                        } else {
                            Some(number()? as usize)
                        })
                    }
                    other => return Err(format!("unexpected key {other}")),
                }
            }
            spans.push(Span {
                workload: workload.ok_or("missing workload")?,
                name: name.ok_or("missing name")?,
                start_ns: start.ok_or("missing start_ns")?,
                end_ns: end.ok_or("missing end_ns")?,
                parent: parent.ok_or("missing parent")?,
            });
        }
        Ok(spans)
    }

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            workload: "w".into(),
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    /// A job tree shaped like the one the traced run records.
    fn job_tree() -> Vec<Span> {
        vec![
            span("job", 100, 1_000, None),
            span("fastq.parse", 100, 300, Some(0)),
            span("pipeline.run", 300, 800, Some(0)),
            span("driver.parse", 300, 400, Some(2)),
            span("driver.rounds", 400, 700, Some(2)),
            span("driver.finish", 700, 790, Some(2)),
            span("dump.merge", 800, 900, Some(0)),
            span("dump.write", 900, 990, Some(0)),
        ]
    }

    #[test]
    fn json_parses_back_to_the_same_spans() {
        let spans = job_tree();
        let back = parse_spans(&to_json(&spans)).unwrap();
        assert_eq!(back, spans);
        assert_eq!(parse_spans(&to_json(&[])).unwrap(), vec![]);
    }

    #[test]
    fn children_nest_inside_their_parent() {
        let spans = job_tree();
        for s in &spans {
            assert!(s.start_ns <= s.end_ns, "{s:?}");
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(p < spans.len());
                assert!(
                    parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                    "{s:?} escapes {parent:?}"
                );
            }
        }
    }

    #[test]
    fn self_times_are_nonnegative_and_bounded_by_the_parent() {
        let spans = job_tree();
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![10, 200, 10, 100, 300, 90, 100, 90]);
        for (i, s) in spans.iter().enumerate() {
            let kids: u64 = spans
                .iter()
                .enumerate()
                .filter(|(_, c)| c.parent == Some(i))
                .map(|(j, _)| selfs[j])
                .sum();
            assert!(selfs[i] + kids <= s.duration_ns(), "span {i}");
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }
}
