//! Prometheus text exposition (version 0.0.4): render and parse.
//!
//! The renderer is used by the registry to answer `Metrics` frames and
//! HTTP `GET /metrics`; the parser is the validation side — golden
//! tests and the CI smoke step parse a live scrape and assert on
//! metric names, types, and label sets rather than on raw bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::{HistSample, Sample};

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Format a value the way Prometheus clients expect: integers without
/// a trailing `.0`, everything else in shortest-roundtrip form.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// `{k="v",…}` for a sample line (`le` first on a histogram bucket), or
/// nothing when there is no label.
fn label_set(le: Option<&str>, labels: &[(&'static str, String)]) -> String {
    let pairs: Vec<String> = (le.map(|v| format!("le=\"{v}\"")).into_iter())
        .chain(labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))))
        .collect();
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Render samples plus histograms into exposition text. Samples (and
/// histograms) sharing a name are grouped under one `# HELP`/`# TYPE`
/// pair in first-seen order.
pub(crate) fn render(samples: &[Sample], hists: &[HistSample]) -> String {
    let mut out = String::with_capacity(1024);
    let mut order: Vec<&str> = Vec::new();
    let mut grouped: BTreeMap<&str, Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        if !grouped.contains_key(s.name) {
            order.push(s.name);
        }
        grouped.entry(s.name).or_default().push(s);
    }
    for name in order {
        let group = &grouped[name];
        let first = group[0];
        let _ = writeln!(out, "# HELP {name} {}", escape_help(first.help));
        let _ = writeln!(out, "# TYPE {name} {}", first.kind.as_str());
        for s in group {
            let _ = writeln!(out, "{name}{} {}", label_set(None, &s.labels), fmt_value(s.value));
        }
    }
    for (i, first) in hists.iter().enumerate() {
        let name = first.desc.name;
        if hists[..i].iter().any(|h| h.desc.name == name) {
            continue; // rendered with the first of its name
        }
        let _ = writeln!(out, "# HELP {name} {}", escape_help(first.desc.help));
        let _ = writeln!(out, "# TYPE {name} histogram");
        for HistSample { labels, hist: h, .. } in hists.iter().filter(|h| h.desc.name == name) {
            let mut cum = 0u64;
            for (i, &n) in h.buckets().iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cum += n;
                // Bucket i covers [2^i, 2^(i+1)); the le bound is exclusive
                // of the next bucket's floor.
                let le = ((1u128 << (i + 1)) as f64).to_string();
                let _ = writeln!(out, "{name}_bucket{} {cum}", label_set(Some(&le), labels));
            }
            let _ = writeln!(out, "{name}_bucket{} {}", label_set(Some("+Inf"), labels), h.count());
            let _ = writeln!(out, "{name}_sum{} {}", label_set(None, labels), h.sum());
            let _ = writeln!(out, "{name}_count{} {}", label_set(None, labels), h.count());
        }
    }
    out
}

/// One parsed sample line.
#[derive(Debug, Clone)]
pub struct SampleLine {
    /// Full sample name, including any `_bucket`/`_sum`/`_count` suffix.
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// One parsed metric (a `# TYPE` block and its samples).
#[derive(Debug, Default, Clone)]
pub struct ParsedMetric {
    pub help: Option<String>,
    pub kind: Option<String>,
    pub samples: Vec<SampleLine>,
}

/// A parsed exposition, keyed by base metric name.
#[derive(Debug, Default)]
pub struct Exposition {
    pub metrics: BTreeMap<String, ParsedMetric>,
}

impl Exposition {
    pub fn kind(&self, name: &str) -> Option<&str> {
        self.metrics.get(name)?.kind.as_deref()
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    /// Value of the (single) unlabeled sample of `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        let m = self.metrics.get(name)?;
        m.samples.iter().find(|s| s.name == name && s.labels.is_empty()).map(|s| s.value)
    }

    /// Value of the sample of `name` carrying label `key="val"`.
    pub fn value_with(&self, name: &str, key: &str, val: &str) -> Option<f64> {
        let m = self.metrics.get(name)?;
        m.samples
            .iter()
            .find(|s| s.name == name && s.labels.iter().any(|(k, v)| k == key && v == val))
            .map(|s| s.value)
    }

    /// Sum over the samples of `name` (of those carrying `key="val"`,
    /// given a selector): one number for a metric a server on several
    /// engine shards fans out by `shard`, or an engine by `reason`.
    pub fn sum(&self, name: &str, sel: Option<(&str, &str)>) -> Option<f64> {
        let has = |s: &SampleLine, (k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v);
        let samples = self.metrics.get(name)?.samples.iter().filter(|s| s.name == name);
        let mut picked = samples.filter(|s| sel.is_none_or(|kv| has(s, kv))).peekable();
        picked.peek()?;
        Some(picked.map(|s| s.value).sum())
    }

    /// All values of the label `key` seen on samples of `name`.
    pub fn label_values(&self, name: &str, key: &str) -> Vec<&str> {
        match self.metrics.get(name) {
            None => Vec::new(),
            Some(m) => m
                .samples
                .iter()
                .flat_map(|s| s.labels.iter())
                .filter(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .collect(),
        }
    }
}

/// Strip a histogram sample suffix to find its base metric name.
fn base_name(sample_name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = sample_name.strip_suffix(suffix) {
            return base;
        }
    }
    sample_name
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_labels(body: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '=' in {{{body}}}"))?;
        let key = rest[..eq].trim().to_string();
        if !valid_metric_name(&key) {
            return Err(format!("line {line_no}: bad label name {key:?}"));
        }
        rest = rest[eq + 1..].trim_start();
        if !rest.starts_with('"') {
            return Err(format!("line {line_no}: label value must be quoted"));
        }
        // Find the closing quote, honoring backslash escapes.
        let bytes = rest.as_bytes();
        let mut i = 1;
        let mut val = String::new();
        loop {
            if i >= bytes.len() {
                return Err(format!("line {line_no}: unterminated label value"));
            }
            match bytes[i] {
                b'"' => break,
                b'\\' => {
                    i += 1;
                    match bytes.get(i) {
                        Some(b'\\') => val.push('\\'),
                        Some(b'"') => val.push('"'),
                        Some(b'n') => val.push('\n'),
                        _ => return Err(format!("line {line_no}: bad escape in label value")),
                    }
                }
                c => val.push(c as char),
            }
            i += 1;
        }
        labels.push((key, val));
        rest = rest[i + 1..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("line {line_no}: expected ',' between labels"));
        }
    }
    Ok(labels)
}

/// Parse (and thereby validate) a text exposition. Enforces the rules
/// the golden tests care about: `# TYPE` precedes its samples and is
/// not repeated, type names are known, sample names are well-formed,
/// values parse as floats, and histogram suffixes attach to a declared
/// histogram.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .map(|(n, h)| (n, h.to_string()))
                .unwrap_or((rest, String::new()));
            if !valid_metric_name(name) {
                return Err(format!("line {line_no}: bad metric name in HELP: {name:?}"));
            }
            exp.metrics.entry(name.to_string()).or_default().help = Some(help);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {line_no}: TYPE without a kind"))?;
            if !valid_metric_name(name) {
                return Err(format!("line {line_no}: bad metric name in TYPE: {name:?}"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return Err(format!("line {line_no}: unknown metric type {kind:?}"));
            }
            let m = exp.metrics.entry(name.to_string()).or_default();
            if m.kind.is_some() {
                return Err(format!("line {line_no}: duplicate TYPE for {name}"));
            }
            if !m.samples.is_empty() {
                return Err(format!("line {line_no}: TYPE for {name} after its samples"));
            }
            m.kind = Some(kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        // Sample: name[{labels}] value
        let (name_and_labels, value_str) = match line.rfind(' ') {
            Some(sp) => (&line[..sp], &line[sp + 1..]),
            None => return Err(format!("line {line_no}: sample without a value: {line:?}")),
        };
        let (sample_name, labels) = match name_and_labels.find('{') {
            Some(open) => {
                let close = name_and_labels
                    .rfind('}')
                    .ok_or_else(|| format!("line {line_no}: unclosed label set"))?;
                (
                    &name_and_labels[..open],
                    parse_labels(&name_and_labels[open + 1..close], line_no)?,
                )
            }
            None => (name_and_labels, Vec::new()),
        };
        if !valid_metric_name(sample_name) {
            return Err(format!("line {line_no}: bad sample name {sample_name:?}"));
        }
        let value = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => {
                v.parse::<f64>().map_err(|_| format!("line {line_no}: bad value {value_str:?}"))?
            }
        };
        // Attach to the declared base metric: a `_bucket`/`_sum`/`_count`
        // suffix belongs to its histogram only if one was declared.
        let base = base_name(sample_name);
        let key = if sample_name != base
            && exp.metrics.get(base).is_some_and(|m| m.kind.as_deref() == Some("histogram"))
        {
            base
        } else {
            sample_name
        };
        let m = exp
            .metrics
            .get_mut(key)
            .ok_or_else(|| format!("line {line_no}: sample {sample_name} has no TYPE"))?;
        if m.kind.is_none() {
            return Err(format!("line {line_no}: sample {sample_name} has no TYPE"));
        }
        m.samples.push(SampleLine { name: sample_name.to_string(), labels, value });
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::registry::{MetricDesc, MetricKind, Sample};

    #[test]
    fn render_then_parse_roundtrips() {
        let samples = vec![
            Sample::counter("ermia_x_total", "an x", 42),
            Sample::counter("ermia_aborts_total", "aborts", 3).labeled("reason", "ww-conflict"),
            Sample::counter("ermia_aborts_total", "aborts", 0).labeled("reason", "phantom"),
            Sample::gauge("ermia_lag_bytes", "lag", 1.5),
        ];
        static HD: MetricDesc = MetricDesc {
            name: "ermia_chain_len",
            help: "chain",
            kind: MetricKind::Counter,
            label: None,
        };
        let mut h = Histogram::new();
        h.record(3);
        h.record(700);
        let text = render(&samples, &[HistSample { desc: &HD, labels: Vec::new(), hist: h }]);
        let exp = parse_exposition(&text).expect("valid exposition");
        assert_eq!(exp.kind("ermia_x_total"), Some("counter"));
        assert_eq!(exp.value("ermia_x_total"), Some(42.0));
        assert_eq!(exp.value_with("ermia_aborts_total", "reason", "ww-conflict"), Some(3.0));
        assert_eq!(exp.value_with("ermia_aborts_total", "reason", "phantom"), Some(0.0));
        assert_eq!(exp.value("ermia_lag_bytes"), Some(1.5));
        assert_eq!(exp.kind("ermia_chain_len"), Some("histogram"));
        assert_eq!(exp.value("ermia_chain_len_count"), None, "suffix attaches to base");
        let m = &exp.metrics["ermia_chain_len"];
        assert!(m.samples.iter().any(|s| s.name == "ermia_chain_len_count" && s.value == 2.0));
        assert!(m.samples.iter().any(|s| s.name == "ermia_chain_len_sum" && s.value == 703.0));
        // +Inf bucket equals count.
        assert!(m.samples.iter().any(|s| s.name == "ermia_chain_len_bucket"
            && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
            && s.value == 2.0));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_exposition("no_type_declared 1\n").is_err());
        assert!(parse_exposition("# TYPE m counter\nm not-a-number\n").is_err());
        assert!(parse_exposition("# TYPE m zebra\n").is_err());
        assert!(parse_exposition("# TYPE m counter\n# TYPE m counter\n").is_err());
        assert!(parse_exposition("# TYPE m counter\nm{x=\"unterminated} 1\n").is_err());
        assert!(parse_exposition("# TYPE m counter\nm{x=y} 1\n").is_err());
    }

    #[test]
    fn escapes_survive_roundtrip() {
        let samples =
            vec![Sample::gauge("m", "help with \\ and\nnewline", 1.0).labeled("k", "a\"b\\c")];
        let text = render(&samples, &[]);
        let exp = parse_exposition(&text).unwrap();
        assert_eq!(exp.value_with("m", "k", "a\"b\\c"), Some(1.0));
    }
}
