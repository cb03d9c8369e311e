//! Declarative experiment specifications (DESIGN.md §11).
//!
//! An [`ExperimentSpec`] is the data form of one Chapter-7-style
//! evaluation: which topology, which routing schemes, which traffic
//! pattern, the load grid, and the stopping rule — everything a run
//! needs, serializable to dependency-free JSON (via [`mcast_obs::Json`])
//! so the run is a reproducible artifact. The CLI (`mcast run --spec`),
//! the legacy flag-driven subcommands, and the bench figure drivers all
//! construct specs and execute them through the same three entry
//! points: [`ExperimentSpec::run_point`] (one `run_dynamic` call),
//! [`ExperimentSpec::run_sweep`] (the parallel grid), and
//! [`ExperimentSpec::run_fault_sweep`] (the degraded-network sweep).
//!
//! Routers are resolved through `mcast_sim::registry`, so a spec works
//! on every registered (topology, scheme) pair — 2D/3D meshes,
//! hypercubes and k-ary n-cubes alike.

use mcast_obs::json::Json;
use mcast_sim::registry::{build_fault_router, build_router, RegistryError, SchemeId, TopoSpec};
use mcast_sim::routers::{ClassOverrideRouter, MulticastRouter};
use mcast_sim::FaultMulticastRouter;

use crate::dynamic::{
    run_dynamic, run_dynamic_stream, DynamicConfig, DynamicResult, StreamConfig, TrafficPattern,
};
use crate::fault_sweep::{run_fault_sweep, FaultSweepConfig, FaultSweepRow};
use crate::parallel::{replication_seed, run_dynamic_sweep, SweepConfig, SweepRow};

fn err(msg: impl Into<String>) -> RegistryError {
    RegistryError(msg.into())
}

/// A registry-built router as the sweep harness consumes it.
pub type SchemeRouter = Box<dyn MulticastRouter + Send + Sync>;

/// The traffic pattern of a spec (resolved to a concrete
/// [`TrafficPattern`] — with the topology's hot-spot node — at run
/// time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternSpec {
    /// Uniform random destinations.
    Uniform,
    /// Every multicast also addresses the topology's hot-spot node.
    Hotspot,
    /// Bursty application phases (DESIGN.md §17): alternating broadcast
    /// (uniform) and allreduce (converging on the topology's hot-spot
    /// node as reduction root) phases of
    /// [`PatternSpec::BURSTY_PHASE_LEN`] injections each.
    Bursty,
}

impl PatternSpec {
    /// Injections per bursty phase (the phase alternation period).
    pub const BURSTY_PHASE_LEN: u64 = 64;

    /// Resolves to a concrete [`TrafficPattern`] on the given topology.
    pub fn resolve(&self, topo: &TopoSpec) -> TrafficPattern {
        match self {
            PatternSpec::Uniform => TrafficPattern::Uniform,
            PatternSpec::Hotspot => TrafficPattern::Hotspot {
                node: topo.hotspot_node(),
            },
            PatternSpec::Bursty => TrafficPattern::Bursty {
                phase_len: Self::BURSTY_PHASE_LEN,
                root: topo.hotspot_node(),
            },
        }
    }

    fn as_str(&self) -> &'static str {
        match self {
            PatternSpec::Uniform => "uniform",
            PatternSpec::Hotspot => "hotspot",
            PatternSpec::Bursty => "bursty",
        }
    }

    fn parse(s: &str) -> Result<PatternSpec, RegistryError> {
        match s {
            "uniform" => Ok(PatternSpec::Uniform),
            "hotspot" => Ok(PatternSpec::Hotspot),
            "bursty" => Ok(PatternSpec::Bursty),
            other => Err(err(format!(
                "unknown pattern {other:?} (expected uniform, hotspot or bursty)"
            ))),
        }
    }
}

/// The batch-means stopping rule and saturation guard (§7.2).
#[derive(Debug, Clone, PartialEq)]
pub struct StoppingRule {
    /// Messages discarded as warmup.
    pub warmup: usize,
    /// Observations per batch.
    pub batch_size: usize,
    /// Minimum batches before the CI rule may stop the run.
    pub min_batches: usize,
    /// Hard cap on batches.
    pub max_batches: usize,
    /// CI-to-mean stopping ratio.
    pub ci_ratio: f64,
    /// Saturation guard (in-flight messages per node).
    pub max_in_flight_per_node: usize,
}

impl Default for StoppingRule {
    fn default() -> Self {
        let d = DynamicConfig::default();
        StoppingRule {
            warmup: d.warmup,
            batch_size: d.batch_size,
            min_batches: d.min_batches,
            max_batches: d.max_batches,
            ci_ratio: d.ci_ratio,
            max_in_flight_per_node: d.max_in_flight_per_node,
        }
    }
}

/// The fault section of a spec: link fault rates for
/// [`ExperimentSpec::run_fault_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Link fault rates (0.0 = healthy baseline).
    pub rates: Vec<f64>,
    /// Messages submitted per rate.
    pub messages: usize,
    /// Whether masks keep the surviving network connected.
    pub keep_connected: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        let d = FaultSweepConfig::default();
        FaultSpec {
            rates: d.fault_rates,
            messages: d.messages,
            keep_connected: d.keep_connected,
        }
    }
}

/// The streaming section of a spec: run every point through the
/// bounded-memory open-loop runner
/// ([`run_dynamic_stream`], DESIGN.md §16) instead of the
/// materializing one. Memory stays O(in-flight) regardless of how many
/// messages the run injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    /// Stop after injecting this many multicasts per point (the
    /// million-multicast axis). `None` keeps the spec's batch-means
    /// stopping rule, making streaming a pure memory optimization.
    pub messages: Option<u64>,
    /// Stop once the generators' clock passes this simulated time (ns)
    /// — the wall-of-simulated-time axis (`mcast run --duration-ms`).
    /// Composes with `messages`: whichever bound trips first stops the
    /// point. Zero is rejected by [`ExperimentSpec::validate`].
    pub duration_ns: Option<u64>,
    /// Backpressure ceiling on in-flight messages per point.
    pub max_in_flight: usize,
}

impl Default for StreamSpec {
    fn default() -> Self {
        let d = StreamConfig::default();
        StreamSpec {
            messages: None,
            duration_ns: None,
            max_in_flight: d.max_in_flight,
        }
    }
}

impl StreamSpec {
    /// Resolves to the runner-level [`StreamConfig`].
    pub fn to_config(&self) -> StreamConfig {
        StreamConfig {
            messages: self.messages,
            duration_ns: self.duration_ns,
            max_in_flight: self.max_in_flight,
        }
    }
}

/// A declarative experiment: everything one sweep needs, as data.
///
/// Seeds are serialized as JSON numbers, so they should stay below
/// 2^53 (every seed the harnesses generate does).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment name (used in reports and artifact names).
    pub name: String,
    /// The network.
    pub topology: TopoSpec,
    /// Routing schemes to sweep.
    pub schemes: Vec<SchemeId>,
    /// Traffic pattern.
    pub pattern: PatternSpec,
    /// Load grid: mean interarrival per node, in µs (lower = heavier).
    pub loads_us: Vec<f64>,
    /// Destinations per multicast.
    pub destinations: usize,
    /// Independent replications per (scheme, load) point.
    pub replications: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Stopping rule.
    pub stopping: StoppingRule,
    /// Run every scheme on a network with at least this many channel
    /// classes (the Fig 7.8 double-channel level playing field).
    pub channel_classes: Option<u8>,
    /// Give branch nodes virtual-cut-through replication buffers (one
    /// message worth) instead of single-flit lock-step buffers.
    pub vct_buffers: bool,
    /// Optional streaming section: bounded-memory open-loop runs.
    pub stream: Option<StreamSpec>,
    /// Optional fault sweep section.
    pub fault: Option<FaultSpec>,
}

impl ExperimentSpec {
    /// A spec with the §7.2 defaults on the given topology.
    pub fn new(name: &str, topology: TopoSpec) -> ExperimentSpec {
        ExperimentSpec {
            name: name.to_string(),
            topology,
            schemes: vec![SchemeId::named("dual-path")],
            pattern: PatternSpec::Uniform,
            loads_us: vec![600.0, 450.0, 350.0],
            destinations: 10,
            replications: 3,
            seed: 7,
            stopping: StoppingRule::default(),
            channel_classes: None,
            vct_buffers: false,
            stream: None,
            fault: None,
        }
    }

    /// The resolved traffic pattern (hot-spot node from the topology).
    pub fn traffic_pattern(&self) -> TrafficPattern {
        self.pattern.resolve(&self.topology)
    }

    /// The per-point dynamic configuration shared by every cell of the
    /// sweep grid (load and per-replication seed vary per point).
    pub fn base_config(&self) -> DynamicConfig {
        let mut cfg = DynamicConfig {
            destinations: self.destinations,
            warmup: self.stopping.warmup,
            batch_size: self.stopping.batch_size,
            min_batches: self.stopping.min_batches,
            max_batches: self.stopping.max_batches,
            ci_ratio: self.stopping.ci_ratio,
            max_in_flight_per_node: self.stopping.max_in_flight_per_node,
            seed: self.seed,
            pattern: self.traffic_pattern(),
            ..DynamicConfig::default()
        };
        if self.vct_buffers {
            cfg.sim.buffer_flits = cfg.sim.flits_per_message();
        }
        cfg
    }

    /// The sweep grid configuration.
    pub fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            base: self.base_config(),
            loads_ns: self.loads_us.iter().map(|&us| us * 1000.0).collect(),
            replications: self.replications,
            stream: self.stream.map(|s| s.to_config()),
        }
    }

    /// Builds every scheme's router (applying the `channel_classes`
    /// override), pairing each with its canonical scheme label.
    pub fn build_routers(&self) -> Result<Vec<(String, SchemeRouter)>, RegistryError> {
        self.schemes
            .iter()
            .map(|scheme| {
                let router = build_router(&self.topology, scheme)?;
                let router: SchemeRouter = match self.channel_classes {
                    Some(classes) => Box::new(ClassOverrideRouter::new(router, classes)),
                    None => router,
                };
                Ok((scheme.to_string(), router))
            })
            .collect()
    }

    /// Checks the spec is executable without running anything: every
    /// (topology, scheme) pair resolves, the grids are non-empty, and
    /// the parameters are in range. This is `mcast run --dry-run`.
    pub fn validate(&self) -> Result<(), RegistryError> {
        if self.schemes.is_empty() {
            return Err(err("spec has no schemes"));
        }
        if self.loads_us.is_empty() {
            return Err(err("spec has an empty load grid"));
        }
        if let Some(&bad) = self.loads_us.iter().find(|&&l| l <= 0.0 || l.is_nan()) {
            return Err(err(format!("non-positive load {bad} µs")));
        }
        if self.replications == 0 {
            return Err(err("replications must be at least 1"));
        }
        if let Some(stream) = &self.stream {
            if stream.max_in_flight == 0 {
                return Err(err("stream.max_in_flight must be at least 1"));
            }
            if stream.messages == Some(0) {
                return Err(err("stream.messages must be at least 1"));
            }
            if stream.duration_ns == Some(0) {
                return Err(err("stream.duration_ns must be at least 1"));
            }
        }
        if self.destinations == 0 || self.destinations >= self.topology.num_nodes() {
            return Err(err(format!(
                "destinations {} out of range for {} ({} nodes)",
                self.destinations,
                self.topology,
                self.topology.num_nodes()
            )));
        }
        self.build_routers()?;
        if let Some(fault) = &self.fault {
            if fault.rates.is_empty() {
                return Err(err("fault section has no rates"));
            }
            if let Some(&bad) = fault.rates.iter().find(|r| !(0.0..=1.0).contains(*r)) {
                return Err(err(format!("fault rate {bad} out of [0, 1]")));
            }
            if fault.messages == 0 {
                return Err(err("fault section needs at least one message"));
            }
            for scheme in &self.schemes {
                build_fault_router(&self.topology, scheme)?;
            }
        }
        Ok(())
    }

    /// Runs one (scheme, load, replication) cell through `run_dynamic`,
    /// with the same derived seed the sweep grid would use for it.
    pub fn run_point(
        &self,
        scheme: &SchemeId,
        load_us: f64,
        replication: usize,
    ) -> Result<DynamicResult, RegistryError> {
        let scheme_idx = self
            .schemes
            .iter()
            .position(|s| s == scheme)
            .ok_or_else(|| err(format!("scheme {scheme} not in spec {:?}", self.name)))?;
        let router = match self.channel_classes {
            Some(classes) => Box::new(ClassOverrideRouter::new(
                build_router(&self.topology, scheme)?,
                classes,
            )) as SchemeRouter,
            None => build_router(&self.topology, scheme)?,
        };
        let load_idx = self
            .loads_us
            .iter()
            .position(|&l| l == load_us)
            .ok_or_else(|| err(format!("load {load_us} µs not in spec grid")))?;
        let index = (scheme_idx * self.loads_us.len() + load_idx) * self.replications + replication;
        let mut cfg = self.base_config();
        cfg.mean_interarrival_ns = load_us * 1000.0;
        cfg.seed = replication_seed(self.seed, index as u64);
        let built = self.topology.build();
        Ok(match &self.stream {
            Some(stream) => {
                run_dynamic_stream(built.as_dyn(), router.as_ref(), &cfg, &stream.to_config())
            }
            None => run_dynamic(built.as_dyn(), router.as_ref(), &cfg),
        })
    }

    /// Runs the whole sweep grid on `jobs` threads. Rows come back in
    /// canonical point order, bit-identical for any job count.
    pub fn run_sweep(&self, jobs: usize) -> Result<Vec<SweepRow>, RegistryError> {
        self.run_sweep_with_budget(jobs, None)
    }

    /// [`ExperimentSpec::run_sweep`] under an optional cooperative
    /// execution budget. The budget is shared across every engine the
    /// sweep creates, so it bounds the *total* step work of the whole
    /// grid and lets a supervisor cancel the run from another thread
    /// (the `mcast serve` deadline path). Rows whose runs were cut
    /// short carry `result.budget_exhausted = true`.
    pub fn run_sweep_with_budget(
        &self,
        jobs: usize,
        budget: Option<mcast_sim::engine::RunBudget>,
    ) -> Result<Vec<SweepRow>, RegistryError> {
        self.validate()?;
        let routers = self.build_routers()?;
        let named: Vec<(&str, &(dyn MulticastRouter + Sync))> = routers
            .iter()
            .map(|(name, r)| (name.as_str(), r.as_ref() as &(dyn MulticastRouter + Sync)))
            .collect();
        let built = self.topology.build();
        let mut cfg = self.sweep_config();
        cfg.base.budget = budget;
        Ok(run_dynamic_sweep(built.as_dyn(), &named, &cfg, jobs))
    }

    /// Runs the fault sweep for every scheme in the spec (requires a
    /// `fault` section), concatenating rows scheme-major.
    pub fn run_fault_sweep(&self) -> Result<Vec<FaultSweepRow>, RegistryError> {
        let fault = self
            .fault
            .as_ref()
            .ok_or_else(|| err(format!("spec {:?} has no fault section", self.name)))?;
        self.validate()?;
        let cfg = FaultSweepConfig {
            fault_rates: fault.rates.clone(),
            messages: fault.messages,
            destinations: self.destinations,
            seed: self.seed,
            keep_connected: fault.keep_connected,
            ..FaultSweepConfig::default()
        };
        let built = self.topology.build();
        let mut rows = Vec::new();
        for scheme in &self.schemes {
            let router: Box<dyn FaultMulticastRouter + Send + Sync> =
                build_fault_router(&self.topology, scheme)?;
            rows.extend(run_fault_sweep(built.as_dyn(), router.as_ref(), &cfg));
        }
        Ok(rows)
    }

    /// Serializes canonically: fixed key order, optional sections
    /// omitted when default — so parse → serialize is byte-identical.
    pub fn to_json(&self) -> String {
        let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
        let mut fields: Vec<(String, Json)> = vec![
            ("name".into(), Json::from(self.name.as_str())),
            ("topology".into(), Json::Str(self.topology.to_string())),
            (
                "schemes".into(),
                Json::Arr(
                    self.schemes
                        .iter()
                        .map(|s| Json::Str(s.to_string()))
                        .collect(),
                ),
            ),
            ("pattern".into(), Json::from(self.pattern.as_str())),
            ("loads_us".into(), nums(&self.loads_us)),
            ("destinations".into(), Json::from(self.destinations)),
            ("replications".into(), Json::from(self.replications)),
            ("seed".into(), Json::Num(self.seed as f64)),
            (
                "stopping".into(),
                Json::Obj(vec![
                    ("warmup".into(), Json::from(self.stopping.warmup)),
                    ("batch_size".into(), Json::from(self.stopping.batch_size)),
                    ("min_batches".into(), Json::from(self.stopping.min_batches)),
                    ("max_batches".into(), Json::from(self.stopping.max_batches)),
                    ("ci_ratio".into(), Json::Num(self.stopping.ci_ratio)),
                    (
                        "max_in_flight_per_node".into(),
                        Json::from(self.stopping.max_in_flight_per_node),
                    ),
                ]),
            ),
        ];
        if let Some(classes) = self.channel_classes {
            fields.push(("channel_classes".into(), Json::from(classes as usize)));
        }
        if self.vct_buffers {
            fields.push(("vct_buffers".into(), Json::Bool(true)));
        }
        if let Some(stream) = &self.stream {
            let mut sf: Vec<(String, Json)> = Vec::new();
            if let Some(m) = stream.messages {
                sf.push(("messages".into(), Json::Num(m as f64)));
            }
            if let Some(d) = stream.duration_ns {
                sf.push(("duration_ns".into(), Json::Num(d as f64)));
            }
            if stream.max_in_flight != StreamSpec::default().max_in_flight {
                sf.push(("max_in_flight".into(), Json::from(stream.max_in_flight)));
            }
            fields.push(("stream".into(), Json::Obj(sf)));
        }
        if let Some(fault) = &self.fault {
            fields.push((
                "fault".into(),
                Json::Obj(vec![
                    ("rates".into(), nums(&fault.rates)),
                    ("messages".into(), Json::from(fault.messages)),
                    ("keep_connected".into(), Json::Bool(fault.keep_connected)),
                ]),
            ));
        }
        let mut out = Json::Obj(fields).to_json();
        out.push('\n');
        out
    }

    /// Parses a spec from JSON, rejecting unknown keys (a typo'd knob
    /// silently ignored would un-reproduce the experiment).
    pub fn from_json(text: &str) -> Result<ExperimentSpec, RegistryError> {
        let v = Json::parse(text).map_err(|e| err(format!("spec JSON: {e}")))?;
        for key in v.keys() {
            if ![
                "name",
                "topology",
                "schemes",
                "pattern",
                "loads_us",
                "destinations",
                "replications",
                "seed",
                "stopping",
                "channel_classes",
                "vct_buffers",
                "stream",
                "fault",
            ]
            .contains(&key)
            {
                return Err(err(format!("unknown spec field {key:?}")));
            }
        }
        let str_field = |k: &str| -> Result<&str, RegistryError> {
            v.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| err(format!("spec field {k:?} missing or not a string")))
        };
        let usize_field = |obj: &Json, k: &str, default: usize| -> Result<usize, RegistryError> {
            match obj.get(k) {
                None => Ok(default),
                Some(x) => {
                    let n = x
                        .as_num()
                        .ok_or_else(|| err(format!("spec field {k:?} not a number")))?;
                    if n < 0.0 || n.fract() != 0.0 {
                        return Err(err(format!("spec field {k:?} must be a whole number")));
                    }
                    Ok(n as usize)
                }
            }
        };
        let nums_field = |obj: &Json, k: &str| -> Result<Vec<f64>, RegistryError> {
            obj.get(k)
                .and_then(Json::as_arr)
                .ok_or_else(|| err(format!("spec field {k:?} missing or not an array")))?
                .iter()
                .map(|x| {
                    x.as_num()
                        .ok_or_else(|| err(format!("non-number in {k:?}")))
                })
                .collect()
        };

        let topology = TopoSpec::parse(str_field("topology")?)?;
        let schemes = v
            .get("schemes")
            .and_then(Json::as_arr)
            .ok_or_else(|| err("spec field \"schemes\" missing or not an array"))?
            .iter()
            .map(|s| {
                s.as_str()
                    .ok_or_else(|| err("non-string in \"schemes\""))
                    .and_then(SchemeId::parse)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let pattern = match v.get("pattern") {
            None => PatternSpec::Uniform,
            Some(p) => PatternSpec::parse(
                p.as_str()
                    .ok_or_else(|| err("spec field \"pattern\" not a string"))?,
            )?,
        };
        let default_stop = StoppingRule::default();
        let stopping = match v.get("stopping") {
            None => default_stop,
            Some(s) => {
                for key in s.keys() {
                    if ![
                        "warmup",
                        "batch_size",
                        "min_batches",
                        "max_batches",
                        "ci_ratio",
                        "max_in_flight_per_node",
                    ]
                    .contains(&key)
                    {
                        return Err(err(format!("unknown stopping field {key:?}")));
                    }
                }
                StoppingRule {
                    warmup: usize_field(s, "warmup", default_stop.warmup)?,
                    batch_size: usize_field(s, "batch_size", default_stop.batch_size)?,
                    min_batches: usize_field(s, "min_batches", default_stop.min_batches)?,
                    max_batches: usize_field(s, "max_batches", default_stop.max_batches)?,
                    ci_ratio: match s.get("ci_ratio") {
                        None => default_stop.ci_ratio,
                        Some(x) => x
                            .as_num()
                            .ok_or_else(|| err("stopping field \"ci_ratio\" not a number"))?,
                    },
                    max_in_flight_per_node: usize_field(
                        s,
                        "max_in_flight_per_node",
                        default_stop.max_in_flight_per_node,
                    )?,
                }
            }
        };
        let stream = match v.get("stream") {
            None => None,
            Some(sobj) => {
                for key in sobj.keys() {
                    if !["messages", "duration_ns", "max_in_flight"].contains(&key) {
                        return Err(err(format!("unknown stream field {key:?}")));
                    }
                }
                let positive_u64 = |k: &str| -> Result<Option<u64>, RegistryError> {
                    match sobj.get(k) {
                        None => Ok(None),
                        Some(x) => {
                            let n = x
                                .as_num()
                                .ok_or_else(|| err(format!("stream field {k:?} not a number")))?;
                            if n < 1.0 || n.fract() != 0.0 {
                                return Err(err(format!(
                                    "stream field {k:?} must be a positive whole number"
                                )));
                            }
                            Ok(Some(n as u64))
                        }
                    }
                };
                let default_stream = StreamSpec::default();
                Some(StreamSpec {
                    messages: positive_u64("messages")?,
                    duration_ns: positive_u64("duration_ns")?,
                    max_in_flight: usize_field(
                        sobj,
                        "max_in_flight",
                        default_stream.max_in_flight,
                    )?,
                })
            }
        };
        let fault = match v.get("fault") {
            None => None,
            Some(fobj) => {
                for key in fobj.keys() {
                    if !["rates", "messages", "keep_connected"].contains(&key) {
                        return Err(err(format!("unknown fault field {key:?}")));
                    }
                }
                let default_fault = FaultSpec::default();
                Some(FaultSpec {
                    rates: nums_field(fobj, "rates")?,
                    messages: usize_field(fobj, "messages", default_fault.messages)?,
                    keep_connected: match fobj.get("keep_connected") {
                        None => default_fault.keep_connected,
                        Some(b) => b
                            .as_bool()
                            .ok_or_else(|| err("fault field \"keep_connected\" not a bool"))?,
                    },
                })
            }
        };
        let channel_classes = match usize_field(&v, "channel_classes", 0)? {
            0 => None,
            c if c <= u8::MAX as usize => Some(c as u8),
            c => return Err(err(format!("channel_classes {c} out of range"))),
        };
        Ok(ExperimentSpec {
            name: str_field("name")?.to_string(),
            topology,
            schemes,
            pattern,
            loads_us: nums_field(&v, "loads_us")?,
            destinations: usize_field(&v, "destinations", 10)?,
            replications: usize_field(&v, "replications", 3)?,
            seed: usize_field(&v, "seed", 7)? as u64,
            stopping,
            channel_classes,
            vct_buffers: match v.get("vct_buffers") {
                None => false,
                Some(b) => b
                    .as_bool()
                    .ok_or_else(|| err("spec field \"vct_buffers\" not a bool"))?,
            },
            stream,
            fault,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentSpec {
        let mut spec = ExperimentSpec::new("sample", TopoSpec::parse("mesh:4x4").unwrap());
        spec.schemes = vec![
            SchemeId::named("dual-path"),
            SchemeId::parse("vc-multi-path:2").unwrap(),
        ];
        spec.loads_us = vec![800.0, 500.0];
        spec.destinations = 4;
        spec.replications = 2;
        spec.stopping = StoppingRule {
            warmup: 20,
            batch_size: 10,
            min_batches: 2,
            max_batches: 3,
            ..StoppingRule::default()
        };
        spec
    }

    #[test]
    fn checked_in_example_spec_is_canonical() {
        // The README's `mcast run --spec` example must stay parseable
        // and byte-canonical (what `to_json` would emit).
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/spec_fig7_5.json"
        );
        let text = std::fs::read_to_string(path).expect("examples/spec_fig7_5.json exists");
        let spec = ExperimentSpec::from_json(&text).expect("example spec parses");
        spec.validate().expect("example spec validates");
        assert_eq!(spec.to_json(), text, "example spec is canonical JSON");
    }

    #[test]
    fn checked_in_stream_spec_is_canonical() {
        // The README's million-multicast quickstart spec must stay
        // parseable, byte-canonical, and actually streaming-shaped:
        // the 64×64 mesh with a ≥ 1 000 000-message bound and the
        // default backpressure cap.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/spec_stream_64x64.json"
        );
        let text = std::fs::read_to_string(path).expect("examples/spec_stream_64x64.json exists");
        let spec = ExperimentSpec::from_json(&text).expect("stream example spec parses");
        spec.validate().expect("stream example spec validates");
        let stream = spec.stream.as_ref().expect("spec has a stream section");
        assert!(stream.messages.expect("message bound set") >= 1_000_000);
        assert_eq!(stream.max_in_flight, StreamSpec::default().max_in_flight);
        assert_eq!(spec.topology.to_string(), "mesh:64x64");
        assert_eq!(
            spec.to_json(),
            text,
            "stream example spec is canonical JSON"
        );
    }

    #[test]
    fn checked_in_modern_spec_is_canonical() {
        // The README's "1990 vs modern" quickstart spec must stay
        // parseable and byte-canonical, and must actually exercise the
        // modern axes: a modern competitor scheme next to dual-path,
        // the bursty phase pattern, and a duration-bounded stream.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/spec_modern_vs_1990.json"
        );
        let text = std::fs::read_to_string(path).expect("examples/spec_modern_vs_1990.json exists");
        let spec = ExperimentSpec::from_json(&text).expect("modern example spec parses");
        spec.validate().expect("modern example spec validates");
        for scheme in ["dual-path", "dpm", "binomial"] {
            assert!(
                spec.schemes.iter().any(|s| s.name == scheme),
                "modern example spec is missing {scheme}"
            );
        }
        assert_eq!(spec.pattern, PatternSpec::Bursty);
        let stream = spec.stream.as_ref().expect("spec has a stream section");
        assert!(stream.duration_ns.expect("duration bound set") >= 1_000_000);
        assert_eq!(
            spec.to_json(),
            text,
            "modern example spec is canonical JSON"
        );
    }

    #[test]
    fn checked_in_custom_graph_spec_is_canonical() {
        // The README's custom-topology quickstart spec must stay
        // parseable and byte-canonical, and must resolve to a Custom
        // topology whose Display round-trips the source string.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/spec_custom_graph.json"
        );
        let text = std::fs::read_to_string(path).expect("examples/spec_custom_graph.json exists");
        let spec = ExperimentSpec::from_json(&text).expect("custom example spec parses");
        spec.validate().expect("custom example spec validates");
        assert!(matches!(spec.topology, TopoSpec::Custom { .. }));
        assert_eq!(spec.topology.to_string(), "custom:lmesh:4x4x2");
        assert_eq!(
            spec.to_json(),
            text,
            "custom example spec is canonical JSON"
        );
    }

    #[test]
    fn custom_topology_specs_round_trip_byte_identically() {
        // A Custom topology serializes as its canonical `custom:<src>`
        // string and re-parses to a structurally equal graph.
        let mut spec = ExperimentSpec::new("custom", TopoSpec::parse("custom:rand:10x3").unwrap());
        spec.schemes = vec![SchemeId::named("updown-mc"), SchemeId::named("updown-tree")];
        spec.loads_us = vec![400.0];
        spec.destinations = 3;
        spec.replications = 1;
        spec.validate().unwrap();
        let text = spec.to_json();
        assert!(text.contains("\"custom:rand:10x3\""));
        let back = ExperimentSpec::from_json(&text).unwrap();
        assert_eq!(back, spec, "custom topology value drift");
        assert_eq!(back.to_json(), text, "custom topology byte drift");
        // Unknown spec keys are still rejected alongside a custom
        // topology…
        assert!(ExperimentSpec::from_json(
            r#"{"name": "x", "topology": "custom:rand:10x3", "schemes": ["updown-mc"],
                "loads_us": [600], "destinations": 3, "graph": "extra"}"#,
        )
        .is_err());
        // …and a bad custom source names itself in the error.
        let e = ExperimentSpec::from_json(
            r#"{"name": "x", "topology": "custom:nope", "schemes": ["updown-mc"],
                "loads_us": [600], "destinations": 3}"#,
        )
        .unwrap_err();
        assert!(e.0.contains("custom"), "unreadable error: {}", e.0);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut spec = sample();
        spec.pattern = PatternSpec::Hotspot;
        spec.channel_classes = Some(2);
        spec.vct_buffers = true;
        spec.stream = Some(StreamSpec {
            messages: Some(1_000_000),
            duration_ns: None,
            max_in_flight: 2048,
        });
        spec.fault = Some(FaultSpec {
            rates: vec![0.0, 0.05],
            messages: 16,
            keep_connected: true,
        });
        let text = spec.to_json();
        mcast_obs::validate_json(&text).expect("canonical spec JSON validates");
        let back = ExperimentSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text, "serialize→parse→serialize drifted");
    }

    #[test]
    fn removed_engine_jobs_key_is_rejected_by_name() {
        let text = sample().to_json().replacen('{', "{\"engine_jobs\": 4, ", 1);
        let e = ExperimentSpec::from_json(&text).expect_err("engine_jobs is not a spec field");
        assert!(e.to_string().contains("\"engine_jobs\""), "{e}");
    }

    #[test]
    fn stream_section_round_trips_and_dispatches() {
        // A default stream section serializes as the empty object and
        // round-trips byte-identically.
        let mut spec = sample();
        spec.stream = Some(StreamSpec::default());
        let text = spec.to_json();
        assert!(text.contains("\"stream\": {}"), "defaults elided: {text}");
        let back = ExperimentSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text);
        // Invalid values are rejected with readable errors.
        spec.stream = Some(StreamSpec {
            messages: Some(0),
            duration_ns: None,
            max_in_flight: 64,
        });
        assert!(spec.validate().is_err());
        assert!(ExperimentSpec::from_json(
            r#"{"name": "x", "topology": "mesh:4x4", "schemes": ["dual-path"],
                "loads_us": [600], "destinations": 3, "stream": {"mesages": 10}}"#,
        )
        .is_err());
        // A message-bounded stream point injects exactly that many
        // multicasts and resolves them all.
        spec.stream = Some(StreamSpec {
            messages: Some(400),
            duration_ns: None,
            max_in_flight: 64,
        });
        spec.validate().unwrap();
        let r = spec
            .run_point(&SchemeId::named("dual-path"), 500.0, 0)
            .unwrap();
        assert_eq!(r.completed, 400);
        assert!(r.peak_in_flight <= 64);
    }

    #[test]
    fn stream_duration_round_trips_and_rejects_zero() {
        // duration_ns is a canonical spec field (`mcast run
        // --duration-ms`): it must survive to_json → from_json →
        // to_json byte-identically, compose with a message bound, and
        // reject zero at both the validate and parse layers.
        let mut spec = sample();
        spec.stream = Some(StreamSpec {
            messages: Some(200),
            duration_ns: Some(5_000_000),
            max_in_flight: 64,
        });
        spec.validate().unwrap();
        let text = spec.to_json();
        assert!(text.contains("\"duration_ns\": 5000000"), "{text}");
        let back = ExperimentSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text);
        // Zero is always a mistake: a zero-length run measures nothing.
        spec.stream = Some(StreamSpec {
            messages: None,
            duration_ns: Some(0),
            max_in_flight: 64,
        });
        let err = spec.validate().unwrap_err();
        assert!(err.0.contains("duration_ns"), "{}", err.0);
        assert!(ExperimentSpec::from_json(
            r#"{"name": "x", "topology": "mesh:4x4", "schemes": ["dual-path"],
                "loads_us": [600], "destinations": 3, "stream": {"duration_ns": 0}}"#,
        )
        .is_err());
        // A duration-bounded point stops injecting at the wall and
        // drains: everything injected resolves.
        spec.stream = Some(StreamSpec {
            messages: None,
            duration_ns: Some(2_000_000),
            max_in_flight: 64,
        });
        spec.validate().unwrap();
        let r = spec
            .run_point(&SchemeId::named("dual-path"), 500.0, 0)
            .unwrap();
        assert!(r.completed > 0, "duration-bounded stream injected nothing");
    }

    #[test]
    fn minimal_json_fills_defaults() {
        let spec = ExperimentSpec::from_json(
            r#"{"name": "mini", "topology": "cube:3",
                "schemes": ["multi-path"], "loads_us": [900], "destinations": 4}"#,
        )
        .unwrap();
        assert_eq!(spec.pattern, PatternSpec::Uniform);
        assert_eq!(spec.destinations, 4);
        assert_eq!(spec.replications, 3);
        assert_eq!(spec.stopping, StoppingRule::default());
        assert!(spec.fault.is_none());
        spec.validate().unwrap();
    }

    #[test]
    fn unknown_fields_rejected() {
        assert!(ExperimentSpec::from_json(
            r#"{"name": "x", "topology": "mesh:4x4", "schemes": ["dual-path"],
                "loads_us": [600], "repliactions": 3}"#,
        )
        .is_err());
        assert!(ExperimentSpec::from_json(
            r#"{"name": "x", "topology": "mesh:4x4", "schemes": ["dual-path"],
                "loads_us": [600], "stopping": {"warmpu": 5}}"#,
        )
        .is_err());
    }

    /// Fuzz satellite (ISSUE 5): seeded random valid specs must
    /// re-serialize byte-identically through
    /// `to_json → from_json → to_json` — the reproducer specs the
    /// conformance harness emits depend on this canonicity.
    #[test]
    fn random_valid_specs_round_trip_byte_identically() {
        use mcast_sim::registry::schemes_for;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED_5EED);
        let topologies = [
            "mesh:4x4",
            "mesh:5x3",
            "mesh:3x3x2",
            "cube:3",
            "cube:4",
            "kary:4x2",
            "torus:3x2",
            "custom:rand:10x3",
            "custom:lmesh:4x4x2",
            "custom:ftree:3x1",
        ];
        let loads = [2.0, 10.0, 60.0, 450.0, 600.0, 800.0];
        let rates = [0.0, 0.02, 0.05, 0.1, 0.25];
        for case in 0..200 {
            let topo = TopoSpec::parse(topologies[rng.gen_range(0..topologies.len())]).unwrap();
            let n = topo.num_nodes();
            let mut schemes = schemes_for(&topo);
            let keep = rng.gen_range(1..=schemes.len());
            while schemes.len() > keep {
                schemes.remove(rng.gen_range(0..schemes.len()));
            }
            let mut spec = ExperimentSpec::new(&format!("fuzz-{case}"), topo);
            spec.schemes = schemes;
            spec.pattern = if rng.gen_range(0..2u32) == 0 {
                PatternSpec::Uniform
            } else {
                PatternSpec::Hotspot
            };
            spec.loads_us = (0..rng.gen_range(1..4usize))
                .map(|_| loads[rng.gen_range(0..loads.len())])
                .collect();
            spec.destinations = rng.gen_range(1..n);
            spec.replications = rng.gen_range(1..5);
            spec.seed = rng.gen_range(0..1u64 << 48);
            spec.stopping = StoppingRule {
                warmup: rng.gen_range(0..100),
                batch_size: rng.gen_range(1..50),
                min_batches: rng.gen_range(1..5),
                max_batches: rng.gen_range(5..20),
                ..StoppingRule::default()
            };
            spec.vct_buffers = rng.gen_range(0..2u32) == 0;
            if rng.gen_range(0..2u32) == 0 {
                spec.fault = Some(FaultSpec {
                    rates: (0..rng.gen_range(1..4usize))
                        .map(|_| rates[rng.gen_range(0..rates.len())])
                        .collect(),
                    messages: rng.gen_range(1..64),
                    keep_connected: rng.gen_range(0..2u32) == 0,
                });
            }
            // New axes draw after every existing one so earlier cases
            // keep their historical shapes.
            if rng.gen_range(0..2u32) == 0 {
                spec.stream = Some(StreamSpec {
                    messages: if rng.gen_range(0..2u32) == 0 {
                        Some(rng.gen_range(1..1_000_000u64))
                    } else {
                        None
                    },
                    duration_ns: None,
                    max_in_flight: rng.gen_range(1..10_000),
                });
            }
            spec.validate()
                .unwrap_or_else(|e| panic!("case {case} should be valid: {e}"));
            let text = spec.to_json();
            mcast_obs::validate_json(&text)
                .unwrap_or_else(|e| panic!("case {case}: invalid JSON: {e}"));
            let back = ExperimentSpec::from_json(&text)
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(back, spec, "case {case}: value drift");
            assert_eq!(back.to_json(), text, "case {case}: byte drift");
        }
    }

    #[test]
    fn unknown_keys_and_zero_dims_rejected_readably() {
        // A typo'd knob names itself in the error…
        let e = ExperimentSpec::from_json(
            r#"{"name": "x", "topology": "mesh:4x4", "schemes": ["dual-path"],
                "loads_us": [600], "destinations": 3, "frobnicate": 1}"#,
        )
        .unwrap_err();
        assert!(e.0.contains("frobnicate"), "unreadable error: {}", e.0);
        // …and a zero-sized dimension says what is wrong, not just that
        // parsing failed.
        let e = ExperimentSpec::from_json(
            r#"{"name": "x", "topology": "mesh:0x4", "schemes": ["dual-path"],
                "loads_us": [600], "destinations": 3}"#,
        )
        .unwrap_err();
        assert!(
            e.0.contains("zero-sized dimension"),
            "unreadable error: {}",
            e.0
        );
    }

    #[test]
    fn validate_catches_bad_specs() {
        let mut s = sample();
        s.schemes.clear();
        assert!(s.validate().is_err());
        let mut s = sample();
        s.loads_us = vec![-10.0];
        assert!(s.validate().is_err());
        let mut s = sample();
        s.destinations = 16; // == num_nodes on 4x4
        assert!(s.validate().is_err());
        let mut s = sample();
        s.schemes = vec![SchemeId::named("octant-tree")]; // 3D-only
        assert!(s.validate().is_err());
        sample().validate().unwrap();
    }

    #[test]
    fn spec_sweep_matches_direct_sweep_row_for_row() {
        let spec = sample();
        let rows = spec.run_sweep(2).unwrap();
        assert_eq!(rows.len(), 2 * 2 * 2);
        // The same grid, hand-built the pre-spec way.
        let routers = spec.build_routers().unwrap();
        let named: Vec<(&str, &(dyn MulticastRouter + Sync))> = routers
            .iter()
            .map(|(n, r)| (n.as_str(), r.as_ref() as &(dyn MulticastRouter + Sync)))
            .collect();
        let built = spec.topology.build();
        let direct = run_dynamic_sweep(built.as_dyn(), &named, &spec.sweep_config(), 1);
        for (a, b) in rows.iter().zip(&direct) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.result.mean_latency_us, b.result.mean_latency_us);
            assert_eq!(a.result.sim_time_ns, b.result.sim_time_ns);
        }
    }

    #[test]
    fn run_point_matches_sweep_cell() {
        let spec = sample();
        let rows = spec.run_sweep(1).unwrap();
        let scheme = SchemeId::parse("vc-multi-path:2").unwrap();
        let point = spec.run_point(&scheme, 500.0, 1).unwrap();
        let row = rows
            .iter()
            .find(|r| {
                r.point.scheme == "vc-multi-path:2"
                    && r.point.mean_interarrival_ns == 500_000.0
                    && r.point.replication == 1
            })
            .expect("cell exists");
        assert_eq!(point.mean_latency_us, row.result.mean_latency_us);
        assert_eq!(point.sim_time_ns, row.result.sim_time_ns);
    }

    #[test]
    fn fault_sweep_runs_from_spec_on_all_topologies() {
        for topo in ["mesh:4x4", "mesh:3x3x2", "cube:3", "torus:3x2"] {
            let mut spec = ExperimentSpec::new("fault", TopoSpec::parse(topo).unwrap());
            spec.schemes = vec![SchemeId::named("dual-path")];
            spec.destinations = 3;
            spec.fault = Some(FaultSpec {
                rates: vec![0.0, 0.1],
                messages: 8,
                keep_connected: true,
            });
            let rows = spec
                .run_fault_sweep()
                .unwrap_or_else(|e| panic!("{topo}: {e}"));
            assert_eq!(rows.len(), 2, "{topo}");
            assert_eq!(rows[0].delivery_ratio, 1.0, "{topo} healthy baseline");
        }
    }

    #[test]
    fn hotspot_pattern_resolves_to_topology_hotspot() {
        let mut spec = sample();
        spec.pattern = PatternSpec::Hotspot;
        match spec.traffic_pattern() {
            TrafficPattern::Hotspot { node } => {
                assert_eq!(node, spec.topology.hotspot_node())
            }
            other => panic!("expected hotspot, got {other:?}"),
        }
    }
}
