//! What one run prints: provenance, every metric by name with its unit
//! (or why it does not apply), and the closing JSON line.

use lewis_serve::Json;

/// The end-to-end metrics every workload reports with a number and
/// `BENCHMARK.json` bounds, as `(name, unit)`. Latencies and goodput are
/// reported too but not bounded: on a shared 2-vCPU VM their run-to-run
/// spread exceeded the largest bound `BENCHMARK.json` admits (see
/// README.md).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_per_op_us", "us"),
];

/// One metric: a value, or `None` with the reason it does not apply.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub note: String,
}

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Every parity check passed.
    pub correct: bool,
}

impl Report {
    /// Record a measured value.
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: Some(value),
            note: note.into(),
        });
    }

    /// Record a metric that does not apply to this workload.
    pub fn not_applicable(&mut self, name: &str, unit: &'static str, why: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: None,
            note: format!("not applicable: {why}"),
        });
    }

    /// A provenance or diagnostic line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The human-readable lines.
    pub fn render(&self) -> Vec<String> {
        let mut lines: Vec<String> = self.notes.iter().map(|n| format!("# {n}")).collect();
        for m in &self.metrics {
            lines.push(match m.value {
                Some(v) => format!("{} = {v} {}  ({})", m.name, m.unit, m.note),
                None => format!("{} = n/a {}  ({})", m.name, m.unit, m.note),
            });
        }
        lines
    }

    /// The closing JSON line carrying exactly the metrics `names`. A
    /// metric without a value here is a defect in the benchmark.
    pub fn json_line(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let metric = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            let value = metric
                .value
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {name} has no finite value ({})", metric.note))?;
            metrics.push((
                name.to_string(),
                Json::obj([("value", Json::num(value)), ("unit", Json::str(*unit))]),
            ));
        }
        let line = Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num(self.attempted.max(1) as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]);
        Ok(line.to_json())
    }
}

/// CPU count, model and flags, and the commit of the checkout when it
/// is a git work tree.
pub fn provenance(report: &mut Report) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_string(), |(_, v)| v.trim().to_string())
    };
    report.note(format!("cpus (available_parallelism): {cpus}"));
    report.note(format!("cpu model: {}", field("model name")));
    report.note(format!("cpu flags: {}", field("flags")));
    report.note(format!("commit: {}", commit()));
}

fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({reference} is packed)")),
        None => head.to_string(),
    }
}

/// CPU time this process (every thread, live or ended) has used so
/// far, in seconds: `utime + stime` from `/proc/self/stat`, which Linux
/// keeps in 1/100 s ticks. Time the host withholds from the VM is not
/// in it.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
