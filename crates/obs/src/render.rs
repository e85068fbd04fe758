//! Renderers: human-readable profile tree and `ion-obs/1` JSON.

use crate::metrics::{HistogramSnapshot, LabeledCounters, LabeledHistograms, Registry};
use crate::span::{SpanData, SpanId, SpanStore};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Point-in-time copy of everything a store + registry captured. Fields
/// are public so tests can build synthetic snapshots (the golden-render
/// test does exactly that).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Finished spans, child intervals clamped into their parents.
    pub spans: Vec<SpanData>,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Labeled counter families: name → labelset → value.
    pub labeled_counters: LabeledCounters,
    /// Labeled histogram families: name → labelset → snapshot.
    pub labeled_histograms: LabeledHistograms,
}

impl Snapshot {
    /// Capture from a live store and registry.
    #[must_use]
    pub fn capture(spans: &SpanStore, registry: &Registry) -> Snapshot {
        let (counters, gauges, histograms) = registry.snapshot();
        let (labeled_counters, labeled_histograms) = registry.snapshot_labeled();
        Snapshot {
            spans: spans.finished(),
            counters,
            gauges,
            histograms,
            labeled_counters,
            labeled_histograms,
        }
    }

    /// Value of a counter (0 when never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All spans with the given name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanData> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Spans with no (recorded) parent.
    #[must_use]
    pub fn roots(&self) -> Vec<&SpanData> {
        let known: std::collections::HashSet<SpanId> = self.spans.iter().map(|s| s.id).collect();
        self.spans
            .iter()
            .filter(|s| s.parent.is_none_or(|p| !known.contains(&p)))
            .collect()
    }

    /// Direct children of `id`, in start order.
    #[must_use]
    pub fn children_of(&self, id: SpanId) -> Vec<&SpanData> {
        let mut children: Vec<&SpanData> =
            self.spans.iter().filter(|s| s.parent == Some(id)).collect();
        children.sort_by_key(|s| (s.start_ns, s.id));
        children
    }

    /// Wall-clock envelope of all root spans, in nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        let roots = self.roots();
        let start = roots.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = roots.iter().map(|s| s.end_ns).max().unwrap_or(0);
        end.saturating_sub(start)
    }

    /// Render the span tree as indented text:
    ///
    /// ```text
    /// profile · 4 spans · total 1.234ms
    /// └─ pipeline                          1.234ms
    ///    ├─ decode                       456.000µs  [bytes=8192]
    ///    └─ extract                      778.000µs
    /// ```
    #[must_use]
    pub fn render_profile(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile · {} spans · total {}",
            self.spans.len(),
            format_ns(self.total_ns())
        );
        let mut roots = self.roots();
        roots.sort_by_key(|s| (s.start_ns, s.id));
        let last_root = roots.len().saturating_sub(1);
        for (i, root) in roots.iter().enumerate() {
            self.render_node(&mut out, root, "", i == last_root);
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name} = {value}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name}: n={} mean={} p50≤{} p99≤{}",
                    h.count,
                    format_ns(h.mean().round() as u64),
                    format_ns(h.approx_quantile(0.5)),
                    format_ns(h.approx_quantile(0.99)),
                );
            }
        }
        out
    }

    fn render_node(&self, out: &mut String, span: &SpanData, prefix: &str, last: bool) {
        let branch = if last { "└─ " } else { "├─ " };
        let label = format!("{prefix}{branch}{}", span.name);
        let attrs = if span.attrs.is_empty() {
            String::new()
        } else {
            let pairs: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("  [{}]", pairs.join(" "))
        };
        let _ = writeln!(
            out,
            "{label:<44}{:>12}{attrs}",
            format_ns(span.duration_ns())
        );
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        let children = self.children_of(span.id);
        let last_child = children.len().saturating_sub(1);
        for (i, child) in children.iter().enumerate() {
            self.render_node(out, child, &child_prefix, i == last_child);
        }
    }

    /// Serialize as the `--metrics-json` document
    /// (`"schema": "ion-obs/1"`): per-stage aggregates keyed by span name,
    /// raw metrics, and the full span list.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut stages: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = stages.entry(span.name.as_ref()).or_insert((0, 0));
            entry.0 += span.duration_ns();
            entry.1 += 1;
        }

        let mut out = String::from("{\n  \"schema\": \"ion-obs/1\",\n");
        let _ = writeln!(out, "  \"total_ns\": {},", self.total_ns());

        out.push_str("  \"stages\": {");
        push_entries(&mut out, stages.iter(), |out, (name, (ns, count))| {
            let _ = write!(
                out,
                "    {}: {{\"total_ns\": {ns}, \"count\": {count}}}",
                json_string(name)
            );
        });
        out.push_str("},\n");

        out.push_str("  \"counters\": {");
        push_entries(&mut out, self.counters.iter(), |out, (name, value)| {
            let _ = write!(out, "    {}: {value}", json_string(name));
        });
        out.push_str("},\n");

        out.push_str("  \"gauges\": {");
        push_entries(&mut out, self.gauges.iter(), |out, (name, value)| {
            let _ = write!(out, "    {}: {}", json_string(name), json_f64(*value));
        });
        out.push_str("},\n");

        out.push_str("  \"histograms\": {");
        push_entries(&mut out, self.histograms.iter(), |out, (name, h)| {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| format!("[{i}, {n}]"))
                .collect();
            let _ = write!(
                out,
                "    {}: {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                json_string(name),
                h.count,
                h.sum,
                buckets.join(", ")
            );
        });
        out.push_str("},\n");

        // Labeled families are additive (absent when empty) so documents
        // produced before labels existed stay byte-identical.
        if !self.labeled_counters.is_empty() {
            out.push_str("  \"labeled_counters\": {");
            push_entries(
                &mut out,
                self.labeled_counters.iter(),
                |out, (name, sets)| {
                    let entries: Vec<String> = sets
                        .iter()
                        .map(|(set, value)| format!("{}: {value}", json_string(set)))
                        .collect();
                    let _ = write!(out, "    {}: {{{}}}", json_string(name), entries.join(", "));
                },
            );
            out.push_str("},\n");
        }
        if !self.labeled_histograms.is_empty() {
            out.push_str("  \"labeled_histograms\": {");
            push_entries(
                &mut out,
                self.labeled_histograms.iter(),
                |out, (name, sets)| {
                    let entries: Vec<String> = sets
                        .iter()
                        .map(|(set, h)| {
                            format!(
                                "{}: {{\"count\": {}, \"sum\": {}}}",
                                json_string(set),
                                h.count,
                                h.sum
                            )
                        })
                        .collect();
                    let _ = write!(out, "    {}: {{{}}}", json_string(name), entries.join(", "));
                },
            );
            out.push_str("},\n");
        }

        out.push_str("  \"spans\": [");
        push_entries(&mut out, self.spans.iter(), |out, span| {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.0.to_string());
            let attrs: Vec<String> = span
                .attrs
                .iter()
                .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
                .collect();
            let _ = write!(
                out,
                "    {{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"thread\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"trace\": {}, \"attrs\": {{{}}}}}",
                span.id.0,
                json_string(&span.name),
                span.thread,
                span.start_ns,
                span.end_ns,
                span.trace,
                attrs.join(", ")
            );
        });
        out.push_str("]\n}\n");
        out
    }
}

/// Write `items` as newline-separated entries between `{`/`}` or `[`/`]`.
fn push_entries<T>(
    out: &mut String,
    items: impl ExactSizeIterator<Item = T>,
    mut write_one: impl FnMut(&mut String, T),
) {
    let len = items.len();
    for (i, item) in items.enumerate() {
        out.push('\n');
        write_one(out, item);
        if i + 1 < len {
            out.push(',');
        } else {
            out.push_str("\n  ");
        }
    }
}

/// JSON string literal with the mandatory escapes.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite JSON number for an `f64` (NaN/inf have no JSON spelling → null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// `1234` → `"1.234µs"`; sub-µs in ns, sub-ms in µs, sub-s in ms.
#[must_use]
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn synthetic() -> Snapshot {
        let span =
            |id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64| SpanData {
                id: SpanId(id),
                parent: parent.map(SpanId),
                name: Cow::Borrowed(name),
                thread: 0,
                start_ns: start,
                end_ns: end,
                trace: 0,
                attrs: Vec::new(),
            };
        Snapshot {
            spans: vec![
                span(1, None, "pipeline", 0, 1_000_000),
                span(2, Some(1), "decode", 0, 250_000),
                span(3, Some(1), "extract", 250_000, 600_000),
            ],
            ..Snapshot::default()
        }
    }

    #[test]
    fn profile_tree_shape() {
        let text = synthetic().render_profile();
        assert!(text.starts_with("profile · 3 spans · total 1.000ms"));
        assert!(text.contains("└─ pipeline"));
        assert!(text.contains("├─ decode"));
        assert!(text.contains("└─ extract"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut snap = synthetic();
        snap.counters.insert("rows".into(), 42);
        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"ion-obs/1\""));
        assert!(json.contains("\"total_ns\": 1000000"));
        assert!(json.contains("\"rows\": 42"));
        assert!(json.contains("\"decode\": {\"total_ns\": 250000, \"count\": 1}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn duration_formats() {
        assert_eq!(format_ns(17), "17ns");
        assert_eq!(format_ns(1_234), "1.234µs");
        assert_eq!(format_ns(1_234_000), "1.234ms");
        assert_eq!(format_ns(2_500_000_000), "2.500s");
    }
}
