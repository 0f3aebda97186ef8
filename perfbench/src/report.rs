//! Metric lists, the per-workload outcome, and the JSON result line.

use crate::trace::Tracer;

/// End-to-end metrics, printed on every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("throughput_ops_s", "ops/s"),
    ("cpu_ns_per_op", "ns"),
];

/// Scenario files of the library, in `examples/scenarios/`.
pub const SCENARIOS: [&str; 6] = [
    "adversarial_inflation",
    "agreement_churn",
    "diurnal",
    "fail_recover",
    "flash_crowd",
    "hotspot_multiredirector",
];

/// Layers whose self time the traced run reports as `<layer>.self_ms`.
pub const SELF_TIME_LAYERS: [&str; 10] = [
    "gen", "http", "coord", "sched", "enforce", "tree", "core", "verify", "sim", "l4",
];

/// Per-layer metrics, printed on every workload with `--trace 1`. A
/// metric of a layer the workload does not exercise reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 46] = [
        ("reactor.wakes", "count"),
        ("l7.verdicts_per_wake", "count"),
        ("http.parse_ns", "ns"),
        ("coord.verdict_ns", "ns"),
        ("l7.socket_ns_per_op", "ns"),
        ("enforce.admitted", "count"),
        ("enforce.deferred", "count"),
        ("enforce.admit_ratio", "ratio"),
        ("enforce.share_error_pct", "pp"),
        ("l7.shed", "count"),
        ("l7.latency_p99_us", "us"),
        ("l7.latency_p999_us", "us"),
        ("l7.shard_runq_wait_ms", "ms"),
        ("gen.lag_max_ms", "ms"),
        ("gen.runq_wait_ms", "ms"),
        ("host.steal_ms", "ms"),
        ("host.probe_us", "us"),
        ("tree.round_us_p50", "us"),
        ("tree.round_us_p90", "us"),
        ("wire.frames_per_round", "count"),
        ("wire.forced_rounds", "count"),
        ("coord.roll_us", "us"),
        ("sched.plan_us_p50", "us"),
        ("sched.plan_us_p90", "us"),
        ("lp.pivots_per_window", "count"),
        ("lp.warm_hits", "count"),
        ("lp.cold_fallbacks", "count"),
        ("sched.plan_cache_hit_ratio", "ratio"),
        ("enforce.credit_install_us", "us"),
        ("window.latency_p99_us", "us"),
        ("window.runq_wait_ms", "ms"),
        ("core.parse_ms", "ms"),
        ("verify.check_ms", "ms"),
        ("core.build_sim_ms", "ms"),
        ("sim.events", "count"),
        ("sim.peak_event_queue", "count"),
        ("sim.deferred_per_offered", "ratio"),
        ("sim.net_transfers", "count"),
        ("sim.net_peak_concurrent", "count"),
        ("l4.spliced", "count"),
        ("l4.refused", "count"),
        ("l4.parked_frac", "ratio"),
        ("l4.shard_cpu_us_per_conn", "us"),
        ("l4.relay_mb_s", "MB/s"),
        ("l4.latency_p99_us", "us"),
        ("l4.shard_runq_wait_ms", "ms"),
    ];
    let mut names: Vec<(String, &str)> = fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    names.extend(SCENARIOS.iter().map(|s| (format!("sim.run_s.{s}"), "s")));
    names.extend(
        SELF_TIME_LAYERS
            .iter()
            .map(|l| (format!("{l}.self_ms"), "ms")),
    );
    names.extend([
        ("trace.spans".to_string(), "count"),
        ("trace.untraced_latency_p50_us".to_string(), "us"),
        ("trace.traced_latency_p50_us".to_string(), "us"),
        ("trace.overhead_pct".to_string(), "%"),
    ]);
    names
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of measurements.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Sets `name`, replacing an earlier value.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.0.push(Metric {
                name: name.to_string(),
                value,
                unit,
            }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Per-layer measurements a workload gathered, before they are laid out
/// on the fixed per-layer list.
#[derive(Debug, Clone, Default)]
pub struct Layers(Metrics);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.push(name, value, "");
    }

    /// Adds each layer's self time and the span count from `tracer`.
    pub fn merge_spans(&mut self, tracer: &Tracer) {
        for (layer, ns) in tracer.self_time_by_layer() {
            if SELF_TIME_LAYERS.contains(&layer.as_str()) {
                self.set(&format!("{layer}.self_ms"), ns as f64 / 1e6);
            }
        }
        self.set("trace.spans", tracer.len() as f64);
    }

    /// Tracing overhead: the traced half's median latency against the
    /// untraced half's, both measured in the same invocation.
    pub fn overhead(&mut self, plain: &Outcome, traced: &Metrics) {
        let (Some(a), Some(b)) = (
            plain.e2e.get("latency_p50_us"),
            traced.get("latency_p50_us"),
        ) else {
            return;
        };
        self.set("trace.untraced_latency_p50_us", a);
        self.set("trace.traced_latency_p50_us", b);
        if a > 0.0 {
            self.set("trace.overhead_pct", 100.0 * (b - a) / a);
        }
    }

    /// The full per-layer list for `workload`, with units.
    pub fn metrics(&self, workload: &str) -> Metrics {
        let mut out = Metrics::default();
        for (name, unit) in per_layer_names() {
            out.push(&name, self.0.get(&name).unwrap_or(0.0), unit);
        }
        for m in &self.0 .0 {
            if out.get(&m.name).is_none() {
                // A workload set a metric missing from the list: a bug in
                // this benchmark, surfaced rather than dropped.
                eprintln!("{workload}: per-layer metric {} is not in the list", m.name);
            }
        }
        out
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed ops. Only [`Outcome::fail`] adds to it, so a failed check
    /// always shows here.
    failed: u64,
    /// Every failed output check, described.
    pub failures: Vec<String>,
    pub e2e: Metrics,
    pub layers: Layers,
    /// Max over principals of |admitted − entitled| rate, in percentage
    /// points of capacity (printed, and checked by the workload; not a
    /// gated metric because a correct run reads near 0).
    pub share_error_pct: Option<f64>,
}

impl Outcome {
    /// Records a failed check that spoiled `ops` ops (at least one: a
    /// check that fails for the run as a whole counts as one).
    pub fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops.max(1);
        self.failures.push(what);
    }

    /// Records a failed check of the run as a whole unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Sets every end-to-end metric in the fixed order.
    pub fn set_e2e(&mut self, values: [f64; END_TO_END.len()]) {
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            self.e2e.push(name, v, unit);
        }
    }

    /// Folds another run's op counts and failed checks into this one.
    pub fn absorb_checks(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// The result line. Non-finite values are invalid JSON and fail the
    /// run instead of printing.
    pub fn json(&mut self, metrics: &Metrics) -> String {
        let mut body = Vec::new();
        for m in &metrics.0 {
            if !m.value.is_finite() {
                self.fail(1, format!("metric {} is not finite", m.name));
                continue;
            }
            body.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_core::json::Value;

    /// `BENCHMARK.json` declares the metrics a run must print; the lists
    /// above are what it prints. Both must name the same metrics, in the
    /// same order and units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = Value::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            let field = |m: &Value, f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            doc.get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let owned = |(n, u): (&str, &str)| (n.to_string(), u.to_string());
        let e2e: Vec<_> = END_TO_END.into_iter().map(owned).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<_> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }
}
