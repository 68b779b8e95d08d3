//! Exposition: the Prometheus text format.
//!
//! The serve daemon answers a `metrics` request with
//! [`render_prometheus`] output (its own registry concatenated with the
//! process default), and [`validate_prometheus`] is the small checker the
//! unit tests and the daemon round trip of `tests/service.rs` run over
//! scraped text: every sample line must parse, histogram buckets must be
//! cumulative and end at `+Inf`, and `_count` must match the `+Inf`
//! bucket.

use crate::registry::{Metric, MetricKey, Registry, HISTOGRAM_BUCKETS};

/// The inclusive upper bound of finite bucket `i`, rendered for the `le`
/// label (`2^i`).
fn bucket_bound(i: usize) -> u64 {
    1u64 << i
}

/// Renders every metric in `registry` in Prometheus text exposition
/// format, in canonical (sorted) order. Counters get a `# TYPE ... counter`
/// line, gauges `gauge`, histograms `histogram` with cumulative
/// `_bucket{le=...}` samples, `_sum`, and `_count`. Only buckets up to the
/// highest occupied one are emitted (plus `+Inf`, always), so the text
/// stays compact.
pub fn render_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_type_line: Option<String> = None;
    let mut emit_type = |out: &mut String, name: &str, kind: &str| {
        let line = format!("# TYPE {name} {kind}\n");
        if last_type_line.as_deref() != Some(line.as_str()) {
            out.push_str(&line);
            last_type_line = Some(line);
        }
    };
    for (key, metric) in registry.snapshot() {
        match metric {
            Metric::Counter(c) => {
                emit_type(&mut out, &key.name, "counter");
                out.push_str(&format!("{} {}\n", key.render(), c.value()));
            }
            Metric::Gauge(g) => {
                emit_type(&mut out, &key.name, "gauge");
                out.push_str(&format!("{} {}\n", key.render(), g.value()));
            }
            Metric::Histogram(h) => {
                emit_type(&mut out, &key.name, "histogram");
                let highest = (0..=HISTOGRAM_BUCKETS)
                    .rev()
                    .find(|&i| h.bucket_count(i) > 0)
                    .unwrap_or(0);
                let mut cumulative = 0u64;
                for i in 0..=highest.min(HISTOGRAM_BUCKETS - 1) {
                    cumulative += h.bucket_count(i);
                    out.push_str(&format!(
                        "{} {}\n",
                        bucket_key(&key, &bucket_bound(i).to_string()),
                        cumulative
                    ));
                }
                out.push_str(&format!("{} {}\n", bucket_key(&key, "+Inf"), h.count()));
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    key.name,
                    label_block(&key),
                    h.sum()
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    key.name,
                    label_block(&key),
                    h.count()
                ));
            }
        }
    }
    out
}

/// `name_bucket{<labels>,le="bound"}`.
fn bucket_key(key: &MetricKey, le: &str) -> String {
    let mut labels: Vec<String> = key
        .labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", crate::registry::escape_label(v)))
        .collect();
    labels.push(format!("le=\"{le}\""));
    format!("{}_bucket{{{}}}", key.name, labels.join(","))
}

/// The `{...}` label block of `key` (empty string without labels).
fn label_block(key: &MetricKey) -> String {
    if key.labels.is_empty() {
        String::new()
    } else {
        let pairs: Vec<String> = key
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", crate::registry::escape_label(v)))
            .collect();
        format!("{{{}}}", pairs.join(","))
    }
}

/// Validates Prometheus text exposition: every non-comment line is
/// `id value`, `# TYPE` kinds are known, histogram `_bucket` series are
/// cumulative (non-decreasing) and end with an `le="+Inf"` bucket equal to
/// the series' `_count`. Returns the first problem found.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    // A histogram series is its name plus its label set minus `le`: two
    // label sets of one metric are independent (each restarts cumulative
    // counting), so they must not be compared against each other.
    fn series_key(name: &str, labels: &str) -> String {
        let kept: Vec<&str> = labels
            .trim_end_matches('}')
            .split(',')
            .filter(|p| !p.trim_start().starts_with("le=") && !p.is_empty())
            .collect();
        format!("{name}{{{}}}", kept.join(","))
    }
    let mut bucket_prev: Option<(String, u64)> = None;
    let mut inf_seen: Option<(String, u64)> = None;
    let check_series_closed = |bucket_prev: &mut Option<(String, u64)>,
                               inf_seen: &mut Option<(String, u64)>| {
        if let Some((name, _)) = bucket_prev.take() {
            if inf_seen.take().map(|(n, _)| n) != Some(name.clone()) {
                return Err(format!("histogram {name} has no le=\"+Inf\" bucket"));
            }
        }
        Ok(())
    };
    for (no, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            check_series_closed(&mut bucket_prev, &mut inf_seen)?;
            let mut it = rest.split_whitespace();
            let _name = it
                .next()
                .ok_or_else(|| format!("line {}: TYPE without a name", no + 1))?;
            match it.next() {
                Some("counter") | Some("gauge") | Some("histogram") | Some("summary")
                | Some("untyped") => {}
                other => return Err(format!("line {}: unknown TYPE {:?}", no + 1, other)),
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (id, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", no + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: unparsable value: {line:?}", no + 1))?;
        if id.is_empty()
            || !id
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        {
            return Err(format!("line {}: bad metric id: {line:?}", no + 1));
        }
        if let Some((series, labels)) = id.split_once('{') {
            if !labels.ends_with('}') {
                return Err(format!("line {}: unclosed label block: {line:?}", no + 1));
            }
            if let Some(series) = series.strip_suffix("_bucket") {
                let series = series_key(series, labels);
                let count = value as u64;
                if labels.contains("le=\"+Inf\"") {
                    if let Some((prev_name, _)) = &bucket_prev {
                        if *prev_name != series {
                            return Err(format!("histogram {prev_name} has no le=\"+Inf\" bucket"));
                        }
                    }
                    bucket_prev = None;
                    inf_seen = Some((series, count));
                } else {
                    match &bucket_prev {
                        Some((prev_name, prev)) if *prev_name == series && count < *prev => {
                            return Err(format!(
                                "line {}: bucket counts decrease for {series}",
                                no + 1
                            ));
                        }
                        Some((prev_name, _)) if *prev_name == series => {}
                        Some(_) => {
                            check_series_closed(&mut bucket_prev, &mut inf_seen)?;
                        }
                        None => {}
                    }
                    bucket_prev = Some((series, count));
                }
                continue;
            }
        }
        let (base, labels) = id.split_once('{').unwrap_or((id, ""));
        if let Some(series) = base.strip_suffix("_count") {
            let series = series_key(series, labels);
            if let Some((inf_name, inf_count)) = &inf_seen {
                if *inf_name == series && value as u64 != *inf_count {
                    return Err(format!(
                        "histogram {series}: _count {} != +Inf bucket {}",
                        value as u64, inf_count
                    ));
                }
            }
        }
    }
    check_series_closed(&mut bucket_prev, &mut inf_seen)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{bucket_index, Registry};

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("inet_jobs_accepted_total", &[]).add(3);
        r.gauge("inet_jobs_queued", &[]).set(2);
        let h = r.histogram("inet_task_latency_us", &[("layer", "sweep.cell")]);
        for v in [1u64, 5, 5, 900, u64::MAX] {
            h.observe(v);
        }
        r
    }

    #[test]
    fn prometheus_rendering_is_valid_and_complete() {
        let r = sample_registry();
        let text = render_prometheus(&r);
        validate_prometheus(&text).expect(&text);
        assert!(
            text.contains("# TYPE inet_jobs_accepted_total counter"),
            "{text}"
        );
        assert!(text.contains("inet_jobs_accepted_total 3"), "{text}");
        assert!(text.contains("# TYPE inet_jobs_queued gauge"), "{text}");
        assert!(
            text.contains("# TYPE inet_task_latency_us histogram"),
            "{text}"
        );
        assert!(
            text.contains("inet_task_latency_us_bucket{layer=\"sweep.cell\",le=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("inet_task_latency_us_bucket{layer=\"sweep.cell\",le=\"+Inf\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("inet_task_latency_us_count{layer=\"sweep.cell\"} 5"),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_render_cumulatively() {
        let r = Registry::new();
        let h = r.histogram("lat", &[]);
        h.observe(1); // bucket 0
        h.observe(2); // bucket 1
        h.observe(2);
        let text = render_prometheus(&r);
        assert!(text.contains("lat_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("lat_bucket{le=\"2\"} 3"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"), "{text}");
        validate_prometheus(&text).expect(&text);
    }

    #[test]
    fn multi_label_set_histograms_validate_as_independent_series() {
        let r = Registry::new();
        // Second label set restarts cumulative counting at lower values —
        // the checker must not read that as a decreasing series.
        let a = r.histogram("inet_task_latency_us", &[("layer", "measure")]);
        for v in [1u64, 2, 900, 901, 902] {
            a.observe(v);
        }
        r.histogram("inet_task_latency_us", &[("layer", "attack")])
            .observe(3);
        let text = render_prometheus(&r);
        validate_prometheus(&text).expect(&text);
    }

    #[test]
    fn checker_rejects_malformed_exposition() {
        assert!(validate_prometheus("# TYPE x antimatter\nx 1\n").is_err());
        assert!(validate_prometheus("no_value_here\n").is_err());
        assert!(validate_prometheus("x NaNish\n").is_err());
        let decreasing = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                          h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate_prometheus(decreasing).is_err());
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate_prometheus(no_inf).is_err());
        let count_mismatch = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 4\n";
        assert!(validate_prometheus(count_mismatch).is_err());
        assert!(validate_prometheus("").is_ok());
    }

    #[test]
    fn bucket_bound_matches_bucket_index() {
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_bound(i)), i, "bound {i}");
            if bucket_bound(i) < u64::MAX {
                assert!(
                    bucket_index(bucket_bound(i) + 1) > i || i == 0,
                    "bound {i}+1"
                );
            }
        }
    }
}
