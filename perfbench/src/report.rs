//! What one phase process prints: operations attempted and failed, the
//! problems found, and its metrics, as a single JSON line.

use std::time::Instant;

/// Per-layer metric names and units. A traced run reports every one of
/// them on every workload; a layer a workload does not use reads 0.
/// `run.py` checks this list against `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.topology_ms", "ms"),
    ("setup.router_ms", "ms"),
    ("setup.network_ms", "ms"),
    ("dynamic.select_ns_per_mcast", "ns"),
    ("gen.ns_per_mcast", "ns"),
    ("plan.ns_per_mcast", "ns"),
    ("plan.allocs_per_mcast", "count"),
    ("plan.worms_per_mcast", "count"),
    ("plan.channels_per_mcast", "count"),
    ("inject.ns_per_mcast", "ns"),
    ("inject.allocs_per_mcast", "count"),
    ("engine.run_ns_per_mcast", "ns"),
    ("engine.run_allocs_per_mcast", "count"),
    ("engine.ns_per_step", "ns"),
    ("engine.steps_per_mcast", "count"),
    ("engine.flit_hops_per_mcast", "count"),
    ("engine.peak_live_worms", "count"),
    ("engine.peak_in_flight", "count"),
    ("engine.message_slots", "count"),
    ("stats.ns_per_mcast", "ns"),
    ("core.sorted_mp.ns_per_route", "ns"),
    ("core.sorted_mc.ns_per_route", "ns"),
    ("core.greedy_st.ns_per_route", "ns"),
    ("core.len.ns_per_route", "ns"),
    ("core.kmb.ns_per_route", "ns"),
    ("core.xfirst.ns_per_route", "ns"),
    ("core.divided_greedy.ns_per_route", "ns"),
    ("core.dual_path.ns_per_route", "ns"),
    ("core.multi_path.ns_per_route", "ns"),
    ("core.fixed_path.ns_per_route", "ns"),
    ("core.dc_xfirst.ns_per_route", "ns"),
    ("core.multi_unicast.ns_per_route", "ns"),
    ("core.allocs_per_route", "count"),
    ("static.ns_per_route", "ns"),
    ("spec.parse_us", "us"),
    ("spec.to_json_us", "us"),
    ("serve.submit_ms", "ms"),
    ("serve.drain_ms_per_job", "ms"),
    ("serve.replay_ms", "ms"),
    ("serve.journal_records_per_job", "count"),
    ("serve.journal_bytes_per_job", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.job_p99_ms", "ms"),
    ("serve.jobs_beyond_p99", "count"),
    ("sim.latency_us", "us"),
    ("count.mcasts", "count"),
    ("count.engine_steps", "count"),
    ("count.flit_hops", "count"),
    ("count.allocs", "count"),
    ("count.plan_worms", "count"),
    ("count.plan_channels", "count"),
    ("count.journal_records", "count"),
    ("count.journal_bytes", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.host_ms", "ms"),
];

/// End-to-end metrics: every untraced run reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("mcasts_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    metrics: Vec<(String, f64)>,
    info: Vec<(String, f64)>,
}

impl Report {
    /// Counts `n` operations, all of which succeeded.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn info(&mut self, name: &str, value: f64) {
        self.info.push((name.to_string(), value));
    }

    /// The JSON line: the metrics of `names` in order (0 for any the
    /// workload did not set), with their units.
    pub fn to_json(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |m| m.1);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                )
            })
            .collect();
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(n, v)| format!("\"{n}\": {}", num(*v)))
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"problems\": [{}], \"metrics\": {{{}}}, \"info\": {{{}}}}}",
            self.attempted,
            self.failed,
            problems.join(", "),
            metrics.join(", "),
            info.join(", ")
        )
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `xs` by the nearest-rank rule, and the number
/// of samples strictly above it.
pub fn quantile(xs: &[f64], q: f64) -> (f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return (0.0, 0);
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let x = v[rank - 1];
    (x, v.iter().filter(|&&y| y > x).count())
}

/// Times `f` repeatedly until at least `min_s` has passed and returns
/// the time of one call, in seconds, so that no sample is shorter than
/// `min_s` however quick the call.
pub fn batched_s(min_s: f64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || t.elapsed().as_secs_f64() < min_s {
        f();
        calls += 1;
    }
    t.elapsed().as_secs_f64() / f64::from(calls)
}

/// Shortest stretch of the timeline a throughput sample covers.
const WINDOW_S: f64 = 1.0;

/// The timed phase of an untraced run: jobs on a clock that stops
/// while set-up samples are taken between jobs. Set-up is sampled
/// throughout the run rather than once, so that both kinds of sample
/// see the same spells of host contention. Samples are taken after a
/// fixed number of jobs, not of seconds, so that a run's sequence of
/// allocations, and with it the peak RSS, does not depend on timing.
pub struct Timeline {
    start: Instant,
    paused_s: f64,
    jobs_at_last_setup: Option<usize>,
    /// (end on the timeline, latency, multicasts) of every job.
    pub jobs: Vec<(f64, f64, u64)>,
    setups: Vec<f64>,
}

impl Timeline {
    pub fn new() -> Timeline {
        Timeline {
            start: Instant::now(),
            paused_s: 0.0,
            jobs_at_last_setup: None,
            jobs: Vec::new(),
            setups: Vec::new(),
        }
    }

    /// Seconds of timeline so far (set-up samples excluded).
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.paused_s
    }

    /// Takes a set-up sample if none was taken in the last `every`
    /// jobs; `sample` returns the set-up time it measured.
    pub fn maybe_setup(&mut self, every: usize, sample: impl FnOnce() -> f64) {
        if self
            .jobs_at_last_setup
            .is_some_and(|last| self.jobs.len() < last + every)
        {
            return;
        }
        let t = Instant::now();
        self.setups.push(sample());
        self.exclude(t);
        self.jobs_at_last_setup = Some(self.jobs.len());
    }

    /// Takes the time since `since` off the timeline.
    pub fn exclude(&mut self, since: Instant) {
        self.paused_s += since.elapsed().as_secs_f64();
    }

    /// Records a job that just ended.
    pub fn job(&mut self, latency_s: f64, mcasts: u64) {
        let end = self.now();
        self.jobs.push((end, latency_s, mcasts));
    }

    /// End-to-end metrics: throughputs are medians over windows of
    /// consecutive jobs spanning at least a second each, latency the
    /// median over jobs, set-up the median over samples.
    pub fn report(&self, rep: &mut Report) {
        let (mut mcast_rates, mut job_rates) = (Vec::new(), Vec::new());
        let (mut from, mut jobs, mut mcasts) = (0.0, 0u64, 0u64);
        for &(end, _, m) in &self.jobs {
            jobs += 1;
            mcasts += m;
            if end - from >= WINDOW_S {
                mcast_rates.push(mcasts as f64 / (end - from));
                job_rates.push(jobs as f64 / (end - from));
                (from, jobs, mcasts) = (end, 0, 0);
            }
        }
        if mcast_rates.is_empty() && jobs > 0 {
            mcast_rates.push(mcasts as f64 / (self.now() - from));
            job_rates.push(jobs as f64 / (self.now() - from));
        }
        let latencies: Vec<f64> = self.jobs.iter().map(|j| j.1).collect();
        rep.metric("mcasts_per_s", median(&mcast_rates));
        rep.metric("jobs_per_s", median(&job_rates));
        rep.metric("job_p50_ms", median(&latencies) * 1e3);
        rep.metric("setup_s", median(&self.setups));
    }
}
