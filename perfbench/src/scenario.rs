//! `scenario_sim`: the simulator over the shipped scenario library.
//!
//! Set-up reads and parses the six `examples/scenarios/*.json` files
//! (`ScenarioSpec::from_json`), verifies each (`verify_scenario`) and
//! lowers it to simulator configurations (`build_sim`), one per seed
//! variant: eight scenario seeds derived from the benchmark seed. The
//! measured loop then runs the whole library through `Simulation::run`
//! pass after pass, cycling through the variants, until the run time is
//! used. One op is one scenario run. Set-up is timed in batches, one
//! before the first pass and one after each pass.
//!
//! Checks: zero verifier errors; every pass reproduces the first pass of
//! its variant exactly; and on the three small scenarios the streaming
//! engine matches `Simulation::run_reference` (run after the measured loop).

use crate::report::{Outcome, SCENARIOS};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;
use covenant_core::ScenarioSpec;
use covenant_sim::{SimConfig, SimReport, Simulation};
use covenant_verify::{verify_scenario, RuleMeta, Severity};
use std::path::Path;
use std::time::Instant;

/// Scenarios small enough to also run on the reference engine.
const REFERENCE_CHECKED: [&str; 3] = ["diurnal", "fail_recover", "hotspot_multiredirector"];
/// Set-up calls per timed batch: one call takes about half a millisecond,
/// too short to time alone. A batch runs before the first pass and after
/// each pass.
const SETUP_PER_BATCH: usize = 10;
/// Scenario seeds per benchmark seed. The seed draws the reply sizes,
/// which change a small scenario's work, and with it its cost per event,
/// by up to a half; cycling through several seeds averages that out.
const VARIANTS: usize = 8;

/// splitmix64 finalizer: a distinct, well-mixed seed per scenario and
/// variant.
fn derive_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reads, parses, verifies and builds every scenario; `[variant][scenario]`.
fn setup(seed: u64, mut tracer: Option<&mut Tracer>) -> Result<Vec<Vec<SimConfig>>, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples/scenarios");
    let mut built: Vec<Vec<SimConfig>> = vec![Vec::new(); VARIANTS];
    for (i, name) in SCENARIOS.iter().enumerate() {
        let path = dir.join(format!("{name}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut span = |what, f: &mut dyn FnMut()| match tracer.as_deref_mut() {
            Some(t) => t.wrap(what, None, i as u64, 1, f),
            None => f(),
        };
        let mut parsed = None;
        span("core.parse", &mut || {
            parsed = Some(ScenarioSpec::from_json(&text))
        });
        let mut spec = parsed
            .expect("closure ran")
            .map_err(|e| format!("{name}: {e}"))?;
        let mut findings = Vec::new();
        span("verify.check", &mut || findings = verify_scenario(&spec));
        let errors = findings
            .iter()
            .filter(|f| f.rule.severity() == Severity::Error)
            .count();
        if errors > 0 {
            return Err(format!(
                "{name}: {errors} verifier errors, first: {}",
                findings[0]
            ));
        }
        for (v, variant) in built.iter_mut().enumerate() {
            spec.seed = derive_seed(seed, v * SCENARIOS.len() + i);
            let mut cfg = None;
            span("core.build_sim", &mut || cfg = Some(spec.build_sim()));
            let cfg = cfg
                .expect("closure ran")
                .map_err(|e| format!("{name}: build_sim: {e}"))?;
            variant.push(cfg);
        }
    }
    Ok(built)
}

pub fn run(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = stats::SetupTimer::default();
    let library = match setups.batch(SETUP_PER_BATCH, || setup(seed, None)) {
        Ok(made) => made,
        Err(e) => {
            out.fail(1, e);
            return out;
        }
    };
    if let Some(t) = tracer.as_deref_mut() {
        // One more set-up, untimed, records the set-up spans.
        if let Err(e) = setup(seed, Some(t)) {
            out.fail(1, e);
        }
    }

    // Every figure is taken per library pass, normalized to the reference
    // host speed by the speed probes taken before and after the pass, and
    // aggregated over passes by `quiet_median`. Latency is a scenario's
    // time per 1000 events, with quantiles over the six scenarios:
    // whole-run times would swing with the seed, which changes a
    // scenario's work.
    let tid = sys::current_tid();
    let started = Instant::now();
    // The first report of each variant, which later passes must reproduce.
    let mut first: Vec<Vec<SimReport>> = vec![Vec::new(); VARIANTS];
    let mut run_s: Vec<Vec<f64>> = vec![Vec::new(); SCENARIOS.len()];
    let mut per_k_us: Vec<Vec<f64>> = vec![Vec::new(); SCENARIOS.len()];
    let (mut pass_rate, mut pass_cpu, mut steal) = (Vec::new(), Vec::new(), Vec::new());
    let mut pass = 0usize;
    let mut probes = vec![sys::speed_probe_ns()];
    while pass == 0 || started.elapsed().as_secs_f64() < seconds {
        let v = pass % VARIANTS;
        let (sched0, steal0) = (sys::schedstat(tid), sys::steal_ticks());
        let (mut events, mut sim_wall) = (0u64, 0.0f64);
        for (i, (name, cfg)) in SCENARIOS.iter().zip(&library[v]).enumerate() {
            let sim = Simulation::new(cfg.clone());
            let t0 = Instant::now();
            let report = match tracer.as_deref_mut() {
                Some(t) => t.wrap("sim.run", None, i as u64, 1, || sim.run()),
                None => sim.run(),
            };
            let wall = t0.elapsed().as_secs_f64();
            out.attempted += 1;
            events += report.events_processed;
            sim_wall += wall;
            run_s[i].push(wall);
            per_k_us[i].push(wall * 1e9 / report.events_processed.max(1) as f64);
            match first[v].get(i) {
                None => first[v].push(report),
                Some(f) if f.outcome_eq(&report) => {}
                Some(_) => out.fail(1, format!("{name}: a replay diverged from the first run")),
            }
        }
        let cpu = sys::schedstat(tid).since(sched0).cpu_ns as f64 / events.max(1) as f64;
        steal.push(sys::steal_ticks() - steal0);
        let probe = sys::speed_probe_ns();
        let f = stats::speed_factor(probes[probes.len() - 1], probe);
        probes.push(probe);
        for v in &mut per_k_us {
            if let Some(last) = v.last_mut() {
                *last *= f;
            }
        }
        pass_rate.push(events as f64 / sim_wall / f);
        pass_cpu.push(cpu * f);
        pass += 1;
        if let Err(e) = setups.batch(SETUP_PER_BATCH, || setup(seed, None)) {
            out.fail(1, e);
            break;
        }
    }

    // Outside the measured loop: the reference engine agrees.
    for (i, (name, cfg)) in SCENARIOS.iter().zip(&library[0]).enumerate() {
        if REFERENCE_CHECKED.contains(name) {
            let reference = Simulation::new(cfg.clone()).run_reference();
            out.check(reference.outcome_eq(&first[0][i]), || {
                format!("{name}: streaming engine differs from run_reference")
            });
        }
    }

    let per_scenario = stats::sorted(
        per_k_us
            .iter()
            .map(|v| stats::quiet_median(v, &steal))
            .collect(),
    );
    out.set_e2e([
        setups.seconds(),
        stats::quantile(&per_scenario, 0.5),
        stats::quantile(&per_scenario, 0.9),
        stats::quiet_median(&pass_rate, &steal),
        stats::quiet_median(&pass_cpu, &steal),
    ]);

    // Per-layer counts describe one pass of the first variant.
    let first = &first[0];
    let l = &mut out.layers;
    for (name, runs) in SCENARIOS.iter().zip(&run_s) {
        l.set(&format!("sim.run_s.{name}"), stats::median(runs));
    }
    l.set("host.probe_us", stats::median(&probes) / 1e3);
    let sum = |f: &dyn Fn(&SimReport) -> u64| first.iter().map(f).sum::<u64>() as f64;
    l.set("sim.events", sum(&|r| r.events_processed));
    l.set(
        "host.steal_ms",
        steal.iter().sum::<u64>() as f64 * sys::MS_PER_TICK,
    );
    let peak_queue = first.iter().map(|r| r.peak_event_queue).max().unwrap_or(0);
    l.set("sim.peak_event_queue", peak_queue as f64);
    let offered = sum(&|r| r.offered.iter().sum());
    let deferred = sum(&|r| r.deferred.iter().sum());
    let admitted = sum(&|r| r.admitted.iter().sum());
    l.set("sim.deferred_per_offered", deferred / offered.max(1.0));
    l.set("enforce.admitted", admitted);
    l.set("enforce.deferred", deferred);
    l.set(
        "enforce.admit_ratio",
        admitted / (admitted + deferred).max(1.0),
    );
    l.set(
        "sim.net_transfers",
        sum(&|r| r.transfer.iter().map(|s| s.count).sum()),
    );
    let peak = first
        .iter()
        .flat_map(|r| r.link_active_peak.iter().copied())
        .max()
        .unwrap_or(0);
    l.set("sim.net_peak_concurrent", peak as f64);
    let hits = sum(&|r| r.plan_cache_hits);
    let plans = hits + sum(&|r| r.plan_cache_misses);
    l.set("sched.plan_cache_hit_ratio", hits / plans.max(1.0));
    l.set(
        "lp.pivots_per_window",
        sum(&|r| r.lp_pivots) / plans.max(1.0),
    );
    l.set("lp.warm_hits", sum(&|r| r.lp_warm_hits));
    l.set("lp.cold_fallbacks", sum(&|r| r.lp_cold_fallbacks));
    if let Some(t) = tracer {
        l.set("core.parse_ms", t.ns_per_call("core.parse") / 1e6);
        l.set("verify.check_ms", t.ns_per_call("verify.check") / 1e6);
        l.set("core.build_sim_ms", t.ns_per_call("core.build_sim") / 1e6);
    }
    out
}
