//! The three workloads: their generated inputs, the service each one
//! boots, and the references every fetched report is checked against.

use crate::stats::{derive, Rng};
use campaign::{
    report_to_value, ApiConfig, ApiServer, CampaignService, CampaignSpec, EngineConfig, FilterSpec,
    HostRegistry,
};
use cluster::{FleetConfig, FleetServer, WorkerAgent, WorkerConfig, WorkerHandle, WorkerStats};
use injector::Scanner;
use jsonlite::Value;
use profipy::case_study::{campaign_a, campaign_b, campaign_c, etcd_host_factory, Campaign};
use profipy::InjectionPlan;
use sandbox::ParallelExecutor;
use std::collections::BTreeMap;
use std::time::Duration;

/// Experiments run concurrently by the engine (and by the fleet
/// worker): pinned so the executor does not follow the host's cores.
pub const EXECUTOR_CORES: usize = 2;

/// Fleet worker idle backoff. Between two closed-loop campaigns the
/// worker's leases come back empty; the library default (25 ms growing
/// to 500 ms) would add up to half a second to the next campaign.
const WORKER_IDLE_BACKOFF: Duration = Duration::from_millis(1);
const WORKER_IDLE_BACKOFF_MAX: Duration = Duration::from_millis(2);

/// Lines per synthetic module (the corpus generator's file size).
const SCAN_MODULE_LOC: usize = 2000;
/// Experiments sampled from each scan-heavy campaign's plan.
pub const SCAN_SAMPLE: usize = 4;
/// Executed / failures of the §V campaigns A, B and C on the
/// case-study seeds: an absolute anchor for the in-process references.
const CASE_STUDY_COUNTS: [(u64, u64); 3] = [(12, 10), (53, 32), (45, 18)];

// Input streams derived from the workload seed.
const STREAM_SCAN_CORPUS: u64 = 1;
const STREAM_SCAN_PLAN: u64 = 2;
const STREAM_NONCE: u64 = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// §V campaigns A, B, C, identical specs: every cache hits.
    SvWarm,
    /// A fresh synthetic corpus per campaign: the §V-D scan dominates.
    ScanHeavy,
    /// A, B, C with a fresh nonce per submission through a fleet
    /// coordinator and one worker: every cache misses.
    FleetCold,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "sv-warm" => Some(Kind::SvWarm),
            "scan-heavy" => Some(Kind::ScanHeavy),
            "fleet-cold" => Some(Kind::FleetCold),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::SvWarm => "sv-warm",
            Kind::ScanHeavy => "scan-heavy",
            Kind::FleetCold => "fleet-cold",
        }
    }

    /// Campaigns submitted per second of `--seconds`. The count is
    /// fixed by the arguments, not by how fast the code runs: the
    /// service's state (queue history, caches, report maps) grows with
    /// every campaign, so a time-boxed run would load faster code more.
    /// The rates make a run at the defining commit last about
    /// `--seconds` on two cores.
    fn campaigns_per_second(self) -> f64 {
        match self {
            Kind::SvWarm => 50.0,
            Kind::ScanHeavy => 0.9,
            Kind::FleetCold => 20.0,
        }
    }

    /// Consecutive campaigns per throughput chunk: whole periods of the
    /// workload's 3-campaign mix, so every chunk does the same work.
    pub fn chunk(self) -> usize {
        match self {
            Kind::SvWarm => 30,
            Kind::ScanHeavy => 3,
            Kind::FleetCold => 15,
        }
    }

    /// Timed campaigns for a run of `seconds`: whole chunks.
    pub fn campaigns(self, seconds: u64) -> usize {
        let chunks = (self.campaigns_per_second() * seconds as f64 / self.chunk() as f64).round();
        (chunks as usize).max(1) * self.chunk()
    }

    fn is_fleet(self) -> bool {
        self == Kind::FleetCold
    }
}

/// How a fetched report is checked.
#[derive(Clone, Copy)]
pub enum Check {
    /// Byte-identical to reference `i`.
    Exact(usize),
    /// Equal to reference `i` in every field but `total_virtual_secs`
    /// (the nonce line shifts virtual time only).
    ExceptVirtualTime(usize),
    /// `executed == SCAN_SAMPLE`; the plan is re-derived from a
    /// reference scan for a seeded sample after the timed section.
    Scan,
}

/// One campaign submission: the spec, its wire form, and its check.
pub struct Submission {
    pub spec: CampaignSpec,
    pub json: String,
    pub check: Check,
    /// Target lines submitted (every source module).
    pub loc: usize,
}

impl Submission {
    fn new(spec: CampaignSpec, check: Check) -> Submission {
        let loc = spec.sources.iter().map(|(_, s)| s.lines().count()).sum();
        Submission {
            json: spec.to_json(),
            spec,
            check,
            loc,
        }
    }
}

pub fn registry() -> HostRegistry {
    HostRegistry::with_noop().with("etcd", etcd_host_factory())
}

/// The §V campaign specs A, B and C, with the `case_study` models,
/// filters, coverage pruning and seeds.
pub fn case_study_specs() -> Vec<CampaignSpec> {
    let models = [
        faultdsl::campaign_a_model(),
        faultdsl::campaign_b_model(),
        faultdsl::campaign_c_model(),
    ];
    let campaigns: [Campaign; 3] = [campaign_a(), campaign_b(), campaign_c()];
    campaigns
        .iter()
        .zip(models)
        .enumerate()
        .map(|(i, (campaign, model))| {
            let mut spec = CampaignSpec::new(
                "bench",
                &campaign.name,
                "etcd",
                vec![
                    ("etcd".into(), targets::CLIENT_SOURCE.into()),
                    ("workload".into(), targets::WORKLOAD_BASIC.into()),
                ],
                targets::WORKLOAD_BASIC.into(),
                model,
            );
            spec.setup = vec![vec!["etcd-start".into()]];
            // `case_study` seeds campaign A, B, C with 1, 2, 3.
            spec.seed = i as u64 + 1;
            spec.filter = FilterSpec::from_filter(&campaign.filter);
            spec.prune_by_coverage = campaign.prune_by_coverage;
            spec
        })
        .collect()
}

/// A nonce derived from the workload seed (kept within the target
/// language's integer range).
fn nonce(seed: u64, index: u64) -> u64 {
    derive(seed, STREAM_NONCE, index) % 1_000_000_000_000
}

/// Appends `_BENCH_NONCE = n` to every source and to the workload, so
/// that parse, prepare, scan, coverage and mutant caches all miss, as
/// for a new build of the target.
fn with_nonce(mut spec: CampaignSpec, nonce: u64) -> CampaignSpec {
    let line = format!("_BENCH_NONCE = {nonce}\n");
    let append = |text: &mut String| {
        if !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(&line);
    };
    for (_, text) in &mut spec.sources {
        append(text);
    }
    append(&mut spec.workload);
    spec
}

fn scan_spec(seed: u64, pass: u64, index: usize) -> CampaignSpec {
    // Two of every three campaigns carry two modules: a fixed mix, so
    // the campaign-time distribution does not depend on the seed, and
    // its median and 90th percentile both fall inside the two-module
    // group rather than on the edge between the groups.
    let modules = if index.is_multiple_of(3) { 1 } else { 2 };
    let stream = index as u64 + 1_000_000 * pass;
    let corpus = targets::generate_corpus(
        derive(seed, STREAM_SCAN_CORPUS, stream),
        SCAN_MODULE_LOC * modules,
    );
    let mut spec = CampaignSpec::new(
        "bench",
        &format!("scan-{pass}-{index}"),
        "noop",
        corpus,
        "def run(round):\n    pass\n".into(),
        bench::large_pattern_model(),
    );
    spec.filter.sample = SCAN_SAMPLE;
    spec.seed = derive(seed, STREAM_SCAN_PLAN, stream);
    spec
}

/// Generated inputs of one pass: warm-up campaigns (part of set-up)
/// and the timed campaigns. `pass` separates the nonces and corpora of
/// passes in one process, so a later pass cannot hit process-wide
/// caches an earlier one filled.
pub struct Inputs {
    pub warmup: Vec<Submission>,
    pub timed: Vec<Submission>,
}

pub fn inputs(kind: Kind, seed: u64, pass: u64, count: usize) -> Inputs {
    let cases = case_study_specs();
    match kind {
        Kind::SvWarm => {
            let round = |i: usize| Submission::new(cases[i % 3].clone(), Check::Exact(i % 3));
            Inputs {
                warmup: (0..3).map(round).collect(),
                timed: (0..count).map(round).collect(),
            }
        }
        Kind::FleetCold => {
            let round = |i: usize, stream: u64| {
                Submission::new(
                    with_nonce(cases[i % 3].clone(), nonce(seed, stream + 1_000_000 * pass)),
                    Check::ExceptVirtualTime(i % 3),
                )
            };
            Inputs {
                warmup: (0..3).map(|i| round(i, 500_000 + i as u64)).collect(),
                timed: (0..count).map(|i| round(i, i as u64)).collect(),
            }
        }
        Kind::ScanHeavy => Inputs {
            warmup: vec![Submission::new(scan_spec(seed, pass + 100, 0), Check::Scan)],
            timed: (0..count)
                .map(|i| Submission::new(scan_spec(seed, pass, i), Check::Scan))
                .collect(),
        },
    }
}

/// Fresh-nonce variants of A, B and C for the traced replay of
/// `fleet-cold`: the same campaigns as a new target build.
pub fn replay_cold_specs(seed: u64) -> Vec<Submission> {
    case_study_specs()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            Submission::new(
                with_nonce(spec, nonce(seed, 9_000_000 + i as u64)),
                Check::ExceptVirtualTime(i),
            )
        })
        .collect()
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        data_dir: None,
        executor: ParallelExecutor::new(EXECUTOR_CORES),
    }
}

/// The in-process reference reports of A, B and C (the exact bytes
/// `GET /api/campaigns/:id/report` serves), computed without HTTP.
pub fn references() -> Result<Vec<String>, String> {
    let mut service = CampaignService::new(engine_config(), registry()).map_err(|e| e.message)?;
    let ids = case_study_specs()
        .into_iter()
        .map(|spec| service.submit(spec).map_err(|e| e.message))
        .collect::<Result<Vec<_>, _>>()?;
    service.drive(None).map_err(|e| e.message)?;
    let mut out = Vec::new();
    for (id, expected) in ids.iter().zip(CASE_STUDY_COUNTS) {
        let report = service
            .engine()
            .report(id)
            .ok_or_else(|| format!("reference campaign {id} did not complete"))?;
        let got = (report.executed as u64, report.failures as u64);
        if got != expected {
            return Err(format!(
                "reference {}: executed/failures {got:?}, expected {expected:?}",
                report.name
            ));
        }
        out.push(report_to_value(&report).pretty());
    }
    Ok(out)
}

fn without_virtual_time(text: &str) -> Result<String, String> {
    match jsonlite::parse(text)? {
        Value::Obj(pairs) => Ok(Value::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "total_virtual_secs")
                .collect(),
        )
        .compact()),
        _ => Err("report is not a JSON object".into()),
    }
}

/// Checks one fetched report body; returns the report's `executed`.
pub fn check_report(check: Check, body: &str, refs: &[String]) -> Result<u64, String> {
    match check {
        Check::Exact(i) => {
            if body != refs[i] {
                return Err(format!("report differs from reference {i}"));
            }
        }
        Check::ExceptVirtualTime(i) => {
            if without_virtual_time(body)? != without_virtual_time(&refs[i])? {
                return Err(format!(
                    "report differs from reference {i} outside total_virtual_secs"
                ));
            }
        }
        Check::Scan => {}
    }
    let report = jsonlite::parse(body)?;
    let executed = report
        .req("executed")?
        .as_u64()
        .ok_or("executed is not a count")?;
    if matches!(check, Check::Scan) && executed != SCAN_SAMPLE as u64 {
        return Err(format!(
            "scan campaign executed {executed}, expected {SCAN_SAMPLE}"
        ));
    }
    Ok(executed)
}

/// Re-derives a scan-heavy campaign's plan from a reference scan and
/// compares it with the served report: `planned_points` and the
/// per-spec experiment counts (which name the sampled points' specs).
pub fn check_scan_plan(spec: &CampaignSpec, body: &str) -> Result<(), String> {
    let modules = spec
        .sources
        .iter()
        .map(|(name, text)| pysrc::parse_module(text, name).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let specs = spec.model.compile().map_err(|e| e.message)?;
    let points = Scanner::new(specs).scan(&modules);
    let plan = InjectionPlan::build(&points, &spec.filter.to_filter(), spec.seed);
    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    for point in &plan.entries {
        *expected.entry(point.spec_name.clone()).or_insert(0) += 1;
    }
    let report = jsonlite::parse(body)?;
    let planned = report.req("planned_points")?.as_u64();
    let mut served: BTreeMap<String, u64> = BTreeMap::new();
    for (name, counts) in report.req("per_spec")?.as_obj().ok_or("per_spec")? {
        let executed = counts
            .as_arr()
            .and_then(|a| a.first())
            .and_then(Value::as_u64)
            .ok_or("per_spec entry")?;
        served.insert(name.clone(), executed);
    }
    if planned != Some(plan.len() as u64) || served != expected {
        return Err(format!(
            "{}: served plan {planned:?} {served:?}, reference scan {} {expected:?}",
            spec.name,
            plan.len()
        ));
    }
    Ok(())
}

/// Indices of the scan-heavy campaigns whose plans are re-derived.
pub fn scan_check_sample(seed: u64, count: usize, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5CA7);
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < n.min(count) {
        let i = (rng.next_u64() % count as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// The service under test, booted through its public API.
pub enum Service {
    Local(ApiServer),
    Fleet {
        server: FleetServer,
        worker: WorkerHandle,
    },
}

impl Service {
    pub fn boot(kind: Kind) -> Result<Service, String> {
        let service = CampaignService::new(engine_config(), registry()).map_err(|e| e.message)?;
        if !kind.is_fleet() {
            let api = ApiServer::serve("127.0.0.1:0", service, ApiConfig::default())
                .map_err(|e| e.message)?;
            return Ok(Service::Local(api));
        }
        let server = FleetServer::serve(
            "127.0.0.1:0",
            service,
            ApiConfig::default(),
            FleetConfig::default(),
        )
        .map_err(|e| e.message)?;
        let worker = WorkerAgent::start(
            WorkerConfig {
                parallelism: EXECUTOR_CORES,
                idle_backoff: WORKER_IDLE_BACKOFF,
                idle_backoff_max: WORKER_IDLE_BACKOFF_MAX,
                ..WorkerConfig::new(server.addr().to_string())
            },
            registry(),
        )
        .map_err(|e| format!("worker start: {e}"))?;
        Ok(Service::Fleet { server, worker })
    }

    pub fn addr(&self) -> String {
        match self {
            Service::Local(api) => api.addr().to_string(),
            Service::Fleet { server, .. } => server.addr().to_string(),
        }
    }

    /// Stops the service (and the worker), returning the worker's
    /// counters in fleet mode.
    pub fn shutdown(self) -> Option<WorkerStats> {
        match self {
            Service::Local(api) => {
                drop(api.shutdown());
                None
            }
            Service::Fleet { server, worker } => {
                let stats = worker.stop();
                drop(server.shutdown());
                Some(stats)
            }
        }
    }
}
