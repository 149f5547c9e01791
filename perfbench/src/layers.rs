//! The traced run's per-layer numbers.
//!
//! Two sources: a replay of timed campaigns through each layer's public
//! functions, in the order the engine calls them and with the engine's
//! cache policy (a [`MutantCache`] keyed like the engine's), timed with
//! spans; and the service's own `/metrics` families, scraped at the end
//! of the traced pass.

use crate::spans::{Recorder, SpanId};
use crate::stats::{mean, median, percentile, ratio};
use crate::workload::{check_report, registry, Submission, EXECUTOR_CORES};
use campaign::{report_to_value, CampaignSpec, JobQueue, MutantCache};
use injector::{InjectionPoint, Scanner};
use profipy::analysis::FailureClassifier;
use profipy::{CampaignReport, ExperimentResult, InjectionPlan, Workflow};
use sandbox::{Container, ContainerImage, ParallelExecutor, RoundOutcome, RoundStatus, SourceFile};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Layer spans of the replay, in call order. `replay.campaign` is the
/// root of each replayed campaign.
pub const REPLAY_ROOT: &str = "replay.campaign";
const DECODE: &str = "jsonlite.spec_decode";
const PARSE: &str = "pysrc.parse";
const COMPILE: &str = "faultdsl.compile";
const PREPARE: &str = "pyrt.prepare";
const SCAN: &str = "injector.scan";
const PLAN: &str = "profipy.plan";
const COVERAGE: &str = "profipy.coverage";
const MUTATE: &str = "profipy.mutate";
const EXPERIMENT: &str = "profipy.experiment";
const DEPLOY: &str = "sandbox.deploy";
const ROUND: &str = "pyrt.round";
const CLASSIFY: &str = "profipy.classify";
const ENCODE: &str = "jsonlite.report_encode";
const WIRE: &str = "cluster.wire";

/// What one replayed campaign produced.
pub struct Replayed {
    pub root: SpanId,
    pub loc: usize,
    pub points: usize,
    pub executed: usize,
    pub report_bytes: usize,
}

/// Replays campaigns with the engine's cross-campaign cache policy.
pub struct Replayer {
    cache: MutantCache,
    classifier: FailureClassifier,
}

impl Replayer {
    pub fn new() -> Replayer {
        Replayer {
            cache: MutantCache::in_memory(),
            classifier: FailureClassifier::case_study(),
        }
    }

    /// Replays one submission and checks its report like the served one.
    pub fn replay(
        &mut self,
        sub: &Submission,
        refs: &[String],
        rec: &Recorder,
    ) -> Result<Replayed, String> {
        let label = sub.spec.name.as_str();
        let root = rec.open(REPLAY_ROOT, None, label);
        let out = self.replay_in(sub, refs, rec, root, label);
        rec.close(root);
        out
    }

    fn replay_in(
        &mut self,
        sub: &Submission,
        refs: &[String],
        rec: &Recorder,
        root: SpanId,
        label: &str,
    ) -> Result<Replayed, String> {
        let at = Some(root);
        let spec = rec.time(DECODE, at, label, || CampaignSpec::from_json(&sub.json))?;
        let host = registry()
            .get(&spec.host)
            .ok_or_else(|| format!("unknown host {}", spec.host))?;
        let key = spec.cache_key();
        let modules = rec.time(PARSE, at, label, || match self.cache.modules(key) {
            Some(modules) => Ok(modules.as_ref().clone()),
            None => spec
                .sources
                .iter()
                .map(|(name, text)| pysrc::parse_module(text, name).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>(),
        })?;
        let mut workflow = rec
            .time(COMPILE, at, label, || {
                spec.build_workflow_with_modules(
                    modules,
                    host,
                    ParallelExecutor::new(EXECUTOR_CORES),
                )
            })
            .map_err(|e| e.message)?;
        self.cache
            .store_modules(key, Arc::new(workflow.modules().to_vec()));
        rec.time(PREPARE, at, label, || {
            let adopted = match self.cache.prepared_program(key) {
                Some(program) => workflow.set_prepared_program(&program),
                None => false,
            };
            if !adopted {
                let program = workflow.prepared_program().clone();
                self.cache.store_prepared_program(key, Arc::new(program));
            }
        });
        let points: Arc<Vec<InjectionPoint>> = rec.time(SCAN, at, label, || {
            match self.cache.points(key, workflow.modules()) {
                Some(points) => points,
                None => {
                    let scanned =
                        Arc::new(Scanner::new(workflow.specs().to_vec()).scan(workflow.modules()));
                    self.cache
                        .store_points(key, scanned.clone(), workflow.modules());
                    scanned
                }
            }
        });
        let mut plan = rec.time(PLAN, at, label, || {
            InjectionPlan::build(&points, &spec.filter.to_filter(), spec.seed)
        });
        if spec.prune_by_coverage {
            let covered = rec.time(COVERAGE, at, label, || {
                let coverage_key = spec.coverage_key();
                match self.cache.covered(coverage_key) {
                    Some(covered) => Ok(covered),
                    None => {
                        let covered =
                            Arc::new(workflow.coverage_run(&points).map_err(|e| e.message)?);
                        self.cache.store_covered(coverage_key, covered.clone());
                        Ok::<_, String>(covered)
                    }
                }
            })?;
            plan = plan.prune_by_coverage(&covered);
        }
        let mut results: Vec<ExperimentResult> = Vec::new();
        let pending: Vec<(InjectionPoint, Arc<Vec<SourceFile>>)> =
            rec.time(MUTATE, at, label, || {
                let mut pending = Vec::new();
                for point in &plan.entries {
                    let sources = match self.cache.mutant(key, point.id) {
                        Some(sources) => sources,
                        None => match workflow.mutant_sources(point) {
                            Ok(rendered) => {
                                let rendered = Arc::new(rendered);
                                self.cache.store_mutant(key, point.id, rendered.clone());
                                rendered
                            }
                            Err(e) => {
                                results.push(mutation_failure(point, &e.message));
                                continue;
                            }
                        },
                    };
                    pending.push((point.clone(), sources));
                }
                pending
            });
        for (point, sources) in &pending {
            let span = rec.open(EXPERIMENT, at, label);
            results.push(run_experiment(
                &spec, &workflow, point, sources, rec, span, label,
            ));
            rec.close(span);
        }
        let report = rec.time(CLASSIFY, at, label, || {
            results.sort_by_key(|r| r.point_id);
            CampaignReport::from_results(&spec.name, plan.len(), None, &results, &self.classifier)
        });
        let body = rec.time(ENCODE, at, label, || report_to_value(&report).pretty());
        // The worker's upload: results encoded, sent, decoded.
        let pairs: Vec<(String, ExperimentResult)> = results
            .into_iter()
            .map(|r| (label.to_string(), r))
            .collect();
        let wired = rec.time(WIRE, at, label, || {
            let text = cluster::wire::results_to_value(&pairs).compact();
            cluster::wire::results_from_value(&jsonlite::parse(&text)?).map(|r| r.len())
        })?;
        if wired != pairs.len() {
            return Err(format!("{label}: wire round trip lost results"));
        }
        check_report(sub.check, &body, refs).map_err(|e| format!("replay of {label}: {e}"))?;
        Ok(Replayed {
            root,
            loc: sub.loc,
            points: points.len(),
            executed: report.executed,
            report_bytes: body.len(),
        })
    }
}

/// A result with both rounds not run, as the engine starts one.
fn empty_result(point: &InjectionPoint) -> ExperimentResult {
    let not_run = RoundOutcome {
        status: RoundStatus::NotRun,
        duration: 0.0,
    };
    ExperimentResult {
        point_id: point.id,
        spec_name: point.spec_name.clone(),
        module: point.module.clone(),
        scope: point.scope.clone(),
        round1: not_run.clone(),
        round2: not_run,
        logs: Vec::new(),
        stdout: String::new(),
        stderr: String::new(),
        duration: 0.0,
        deploy_error: None,
        events: Vec::new(),
    }
}

/// The engine's record for a point whose mutant cannot be rendered.
fn mutation_failure(point: &InjectionPoint, message: &str) -> ExperimentResult {
    ExperimentResult {
        deploy_error: Some(message.to_string()),
        ..empty_result(point)
    }
}

/// One experiment as `Workflow::run_experiment_with_sources` runs it:
/// deploy → round 1 (fault on) → round 2 (fault off) → teardown.
fn run_experiment(
    spec: &CampaignSpec,
    workflow: &Workflow,
    point: &InjectionPoint,
    sources: &[SourceFile],
    rec: &Recorder,
    parent: SpanId,
    label: &str,
) -> ExperimentResult {
    let at = Some(parent);
    let seed = spec
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(point.id);
    let mut result = empty_result(point);
    let mut image = ContainerImage::new(format!("exp-{}", point.id))
        .workload(&spec.workload)
        .round_timeout(spec.round_timeout)
        .fuel(spec.fuel_per_round);
    image.setup = spec.setup.clone();
    image.sources = sources.to_vec();
    // The prepared modules of every source the mutant left unchanged,
    // plus the workload unless a source overrides it.
    let program = workflow.prepared_program();
    for src in sources {
        let unchanged = workflow
            .sources()
            .iter()
            .any(|(n, t)| n == &src.import_name && t == &src.text);
        if let (true, Some(pm)) = (
            unchanged,
            program
                .modules
                .iter()
                .find(|p| p.module.name == src.import_name),
        ) {
            image.prepared.push(pm.clone());
        }
    }
    if !sources.iter().any(|s| s.import_name == "workload") {
        if let Some(pm) = &program.workload {
            image.prepared.push(pm.clone());
        }
    }
    let host = match registry().get(&spec.host) {
        Some(factory) => factory(seed),
        None => {
            result.deploy_error = Some(format!("unknown host {}", spec.host));
            return result;
        }
    };
    let mut container = match rec.time(DEPLOY, at, label, || Container::deploy(&image, host, seed))
    {
        Ok(c) => c,
        Err(e) => {
            result.deploy_error = Some(e.to_string());
            return result;
        }
    };
    result.round1 = rec.time(ROUND, at, label, || container.run_round(1, true));
    result.round2 = rec.time(ROUND, at, label, || container.run_round(2, false));
    result.logs = container.logs();
    result.stdout = container.stdout();
    result.stderr = container.stderr();
    result.duration = container.now();
    result.events = container.trace_events();
    container.teardown();
    result
}

/// `JobQueue::take_next` over the pass's specs, each completed before
/// the next is submitted (as in the closed loop): mean µs per take.
pub fn queue_take_next_us(subs: &[Submission]) -> Result<f64, String> {
    let mut queue = JobQueue::in_memory();
    let mut total = 0.0;
    for sub in subs {
        let id = queue.submit(sub.spec.clone()).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let taken = queue.take_next().map_err(|e| e.to_string())?;
        total += t0.elapsed().as_secs_f64();
        if taken.as_deref() != Some(id.as_str()) {
            return Err(format!("queue replay took {taken:?}, expected {id}"));
        }
        queue.complete(&id).map_err(|e| e.to_string())?;
    }
    Ok(ratio(total * 1e6, subs.len() as f64))
}

/// A parsed `/metrics` exposition: sample name (labels stripped) →
/// summed value.
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut samples = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let base = name.split('{').next().unwrap_or(name);
            if base.ends_with("_bucket") {
                continue;
            }
            *samples.entry(base.to_string()).or_insert(0.0) += value;
        }
        Scrape(samples)
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Mean of a seconds histogram, in ms (0 if never observed).
    pub fn mean_ms(&self, histogram: &str) -> f64 {
        ratio(
            self.get(&format!("{histogram}_sum")) * 1e3,
            self.get(&format!("{histogram}_count")),
        )
    }

    /// Hit ratio of one of the engine's caches.
    pub fn hit_ratio(&self, cache: &str) -> f64 {
        let hits = self.get(&format!("profipy_cache_{cache}_hits"));
        let misses = self.get(&format!("profipy_cache_{cache}_misses"));
        ratio(hits, hits + misses)
    }
}

/// Per-campaign means of the replayed layers' self times, and the
/// replay-derived per-layer metrics.
pub fn replay_metrics(
    rec: &Recorder,
    replayed: &[Replayed],
    fleet: bool,
    campaign_s_p50: f64,
    metrics: &mut Vec<(String, f64, &'static str)>,
) {
    let selfs: Vec<BTreeMap<&'static str, f64>> = replayed
        .iter()
        .map(|r| rec.self_times_under(r.root))
        .collect();
    let per_campaign_ms = |layer: &str| {
        mean(
            &selfs
                .iter()
                .map(|s| s.get(layer).copied().unwrap_or(0.0) * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let total_s = |layer: &str| {
        selfs
            .iter()
            .map(|s| s.get(layer).copied().unwrap_or(0.0))
            .sum::<f64>()
    };
    let loc: f64 = replayed.iter().map(|r| r.loc as f64).sum();
    let count =
        |f: fn(&Replayed) -> usize| mean(&replayed.iter().map(|r| f(r) as f64).collect::<Vec<_>>());
    let ms = |v: Vec<f64>| v.into_iter().map(|s| s * 1e3).collect::<Vec<_>>();
    let deploys = ms(rec.durations(DEPLOY));
    let rounds = ms(rec.durations(ROUND));
    let experiments = ms(rec.durations(EXPERIMENT));
    // The share of a served campaign the replayed layers account for.
    // Local services do no wire coding, so it is left out there.
    let covered: Vec<f64> = selfs
        .iter()
        .map(|s| {
            s.iter()
                .filter(|(name, _)| **name != REPLAY_ROOT && (fleet || **name != WIRE))
                .map(|(_, v)| v)
                .sum::<f64>()
        })
        .collect();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push((name.to_string(), value, unit));
    };
    put("injector.scan_ms", per_campaign_ms(SCAN), "ms");
    put(
        "injector.scan_us_per_loc",
        ratio(total_s(SCAN) * 1e6, loc),
        "us/LoC",
    );
    put("injector.points", count(|r| r.points), "count");
    put("pysrc.parse_ms", per_campaign_ms(PARSE), "ms");
    put(
        "pysrc.parse_us_per_loc",
        ratio(total_s(PARSE) * 1e6, loc),
        "us/LoC",
    );
    put("pyrt.prepare_ms", per_campaign_ms(PREPARE), "ms");
    put("faultdsl.compile_ms", per_campaign_ms(COMPILE), "ms");
    put("sandbox.deploy_ms_p50", median(&deploys), "ms");
    put("sandbox.deploy_ms_max", percentile(&deploys, 1.0), "ms");
    put("pyrt.round_ms_p50", median(&rounds), "ms");
    put("profipy.plan_ms", per_campaign_ms(PLAN), "ms");
    put("profipy.coverage_ms", per_campaign_ms(COVERAGE), "ms");
    put("profipy.mutate_ms", per_campaign_ms(MUTATE), "ms");
    put("profipy.experiment_ms_p50", median(&experiments), "ms");
    put("profipy.classify_ms", per_campaign_ms(CLASSIFY), "ms");
    put("profipy.executed", count(|r| r.executed), "count");
    put("jsonlite.report_encode_ms", per_campaign_ms(ENCODE), "ms");
    put("jsonlite.spec_decode_ms", per_campaign_ms(DECODE), "ms");
    put("jsonlite.report_bytes", count(|r| r.report_bytes), "bytes");
    put("cluster.wire_ms", per_campaign_ms(WIRE), "ms");
    put(
        "trace.replay_cover_frac",
        ratio(median(&covered), campaign_s_p50),
        "ratio",
    );
}
