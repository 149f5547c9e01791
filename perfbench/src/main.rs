//! Service benchmark for the ProFIPy reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sv-warm|scan-heavy|fleet-cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run boots the service in-process through its public API
//! (`campaign::ApiServer`, or `cluster::FleetServer` plus one
//! `cluster::WorkerAgent`), warms it up, and drives a fixed number of
//! campaigns over loopback HTTP with a closed-loop client, checking
//! every report. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run is
//! repeated with spans recorded, campaigns are replayed through each
//! layer's public functions, and the metrics are per layer (see
//! `LAYERS.md` beside this package).

mod drive;
mod layers;
mod spans;
mod stats;
mod workload;

use drive::{client, Outcome};
use layers::{Replayer, Scrape};
use spans::Recorder;
use stats::{derive, median, peak_rss_mib, percentile, ratio};
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::{Inputs, Kind, Service};

/// Set-up samples per run: this process plus child processes that only
/// boot and warm up, each fresh so process-wide caches start empty.
const SETUP_SAMPLES: usize = 5;
/// Scan-heavy campaigns whose plans are re-derived after the timed run.
const SCAN_CHECKS: usize = 2;
/// Timed campaigns replayed layer by layer in the traced run.
const REPLAYS: usize = 3;
/// `/metrics` scrapes timed at the end of the traced pass.
const METRICS_SCRAPES: usize = 15;
/// Campaign timelines fetched at the end of the traced pass.
const TRACE_FETCHES: usize = 10;
const STREAM_THINK: u64 = 10;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace,
        setup_probe,
    })
}

/// The program gets only the generated inputs: no `PROFIPY_*` setting
/// (engine, spec version, log destination) leaks in from the caller.
fn clear_profipy_env() -> Vec<String> {
    let keys: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("PROFIPY_"))
        .collect();
    for key in &keys {
        std::env::remove_var(key);
    }
    keys
}

/// A booted, warmed-up service with its pass's inputs.
struct Pass {
    service: Service,
    inputs: Inputs,
    setup_s: f64,
}

/// Generates the pass's inputs, boots and warms up the service (timed
/// as `setup_s`, up to the first timed submit), and with `count > 0`
/// runs the timed section. The service is left running.
fn run_pass(
    args: &Args,
    pass: u64,
    count: usize,
    refs: &[String],
    rec: Option<&Recorder>,
    tally: &mut Tally,
) -> Result<(Pass, Outcome), String> {
    let inputs = workload::inputs(args.kind, args.seed, pass, count);
    let t0 = Instant::now();
    let service = Service::boot(args.kind)?;
    let mut warm = Outcome::default();
    drive::submit_all(
        &mut client(&service.addr()),
        &inputs.warmup,
        refs,
        None,
        &mut warm,
    );
    let setup_s = t0.elapsed().as_secs_f64();
    tally.add(&warm);
    let observe_id = warm
        .ids
        .first()
        .ok_or_else(|| format!("warm-up failed: {:?}", warm.failures))?;
    let think_seed = derive(args.seed, STREAM_THINK, 0);
    let timed = if count > 0 {
        drive::run_timed(
            &service.addr(),
            &inputs.timed,
            refs,
            observe_id,
            think_seed,
            rec,
        )
    } else {
        Outcome::default()
    };
    tally.add(&timed);
    Ok((
        Pass {
            service,
            inputs,
            setup_s,
        },
        timed,
    ))
}

/// Totals of attempted and failed operations across the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, outcome: &Outcome) {
        self.attempted += outcome.attempted;
        self.failures.extend(outcome.failures.iter().cloned());
    }

    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// Re-derives the plans of a seeded sample of scan-heavy campaigns.
fn check_scan_sample(seed: u64, inputs: &Inputs, outcome: &Outcome, tally: &mut Tally) {
    for i in workload::scan_check_sample(seed, inputs.timed.len(), SCAN_CHECKS) {
        let body = &outcome.reports[i];
        if body.is_empty() {
            continue; // already counted as failed
        }
        let sub = &inputs.timed[i];
        tally.check("scan plan", workload::check_scan_plan(&sub.spec, body));
    }
}

/// Runs this binary in set-up-only mode and returns its `setup_s`.
fn setup_probe(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", args.kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("setup probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    let setup_s = jsonlite::parse(last)
        .ok()
        .and_then(|v| v.get("setup_s").and_then(|s| s.as_f64()));
    match (out.status.success(), setup_s) {
        (true, Some(s)) => Ok(s),
        _ => Err(format!("setup probe failed ({}): {last}", out.status)),
    }
}

/// Per-chunk `(experiments/s, kLoC/s)` over consecutive groups of
/// `chunk` campaigns.
fn chunk_rates(outcome: &Outcome, chunk: usize) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut prev = 0.0;
    for group in outcome.done.chunks(chunk) {
        let end = group.last().map_or(prev, |d| d.at_s);
        let exps: u64 = group.iter().map(|d| d.executed).sum();
        let loc: u64 = group.iter().map(|d| d.loc).sum();
        out.push((
            ratio(exps as f64, end - prev),
            ratio(loc as f64 / 1e3, end - prev),
        ));
        prev = end;
    }
    out
}

type Metrics = Vec<(String, f64, &'static str)>;

fn print_result(tally: &Tally, metrics: &Metrics) {
    for failure in tally.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {failure}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failures.is_empty(),
        tally.attempted.max(1),
        tally.failures.len(),
        body.join(", ")
    );
}

fn end_to_end(
    args: &Args,
    refs: &[String],
    count: usize,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let (pass, timed) = run_pass(args, 0, count, refs, None, tally)?;
    let peak_rss = peak_rss_mib();
    pass.service.shutdown();
    if args.kind == Kind::ScanHeavy {
        check_scan_sample(args.seed, &pass.inputs, &timed, tally);
    }
    let mut setups = vec![pass.setup_s];
    for _ in 1..SETUP_SAMPLES {
        let probe = setup_probe(args).map(|s| setups.push(s));
        tally.check("setup probe", probe);
    }
    println!(
        "perfbench: {} campaigns in {:.3} s, {} experiments, {} observer polls, setup samples {:?}",
        timed.campaign_s.len(),
        timed.wall_s,
        timed.executed,
        timed.status_ms.len(),
        setups
    );
    let chunks = chunk_rates(&timed, args.kind.chunk());
    let (eps, kloc): (Vec<f64>, Vec<f64>) = chunks.into_iter().unzip();
    Ok(vec![
        ("setup_s".into(), median(&setups), "s"),
        ("campaign_s_p50".into(), median(&timed.campaign_s), "s"),
        (
            "campaign_s_p90".into(),
            percentile(&timed.campaign_s, 0.9),
            "s",
        ),
        ("experiments_per_s".into(), median(&eps), "1/s"),
        ("kloc_per_s".into(), median(&kloc), "kLoC/s"),
        ("status_ms_p50".into(), median(&timed.status_ms), "ms"),
        (
            "status_ms_p90".into(),
            percentile(&timed.status_ms, 0.9),
            "ms",
        ),
        ("peak_rss_mb".into(), peak_rss, "MiB"),
    ])
}

fn per_layer(
    args: &Args,
    refs: &[String],
    count: usize,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let kind = args.kind;
    // Untraced pass: the baseline of the tracing overhead.
    let (pass, plain) = run_pass(args, 0, count, refs, None, tally)?;
    pass.service.shutdown();

    // Traced pass on a fresh service, with fresh nonces and corpora.
    let rec = Recorder::new();
    let (pass, traced) = run_pass(args, 1, count, refs, Some(&rec), tally)?;
    let mut http = client(&pass.service.addr());
    let mut scrape_ms = Vec::new();
    let mut scrape = Scrape::parse("");
    for _ in 0..METRICS_SCRAPES {
        let t0 = Instant::now();
        let scraped = match http.get("/metrics") {
            Ok(resp) if resp.status == 200 => {
                scrape_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                scrape = Scrape::parse(&resp.text());
                Ok(())
            }
            other => Err(format!("{:?}", other.map(|r| r.status))),
        };
        tally.check("metrics scrape", scraped);
    }
    let mut spans_per_campaign = Vec::new();
    for id in traced.ids.iter().rev().take(TRACE_FETCHES) {
        let count = http
            .get(&format!("/api/campaigns/{id}/trace"))
            .map_err(|e| e.to_string())
            .and_then(|resp| {
                let v = jsonlite::parse(&resp.text())?;
                v.req("span_count")?
                    .as_u64()
                    .ok_or_else(|| "span_count".to_string())
            });
        tally.check(
            "campaign trace",
            count.map(|n| spans_per_campaign.push(n as f64)),
        );
    }
    let worker = pass.service.shutdown();
    if kind == Kind::ScanHeavy {
        check_scan_sample(args.seed, &pass.inputs, &traced, tally);
    }

    // Replay: warm the replay cache like the service was warmed, then
    // replay timed campaigns layer by layer.
    let mut replayer = Replayer::new();
    let warmup_rec = Recorder::new();
    for sub in &pass.inputs.warmup {
        tally.check(
            "replay warm-up",
            replayer.replay(sub, refs, &warmup_rec).map(drop),
        );
    }
    let cold;
    let replay_subs: &[workload::Submission] = match kind {
        Kind::FleetCold => {
            cold = workload::replay_cold_specs(args.seed);
            &cold
        }
        _ => &pass.inputs.timed[..REPLAYS.min(pass.inputs.timed.len())],
    };
    let mut replayed = Vec::new();
    for sub in replay_subs {
        let replay = replayer.replay(sub, refs, &rec).map(|r| replayed.push(r));
        tally.check("replay", replay);
    }
    let take_next_us = layers::queue_take_next_us(&pass.inputs.timed)?;

    let traced_p50 = median(&traced.campaign_s);
    let mut metrics: Metrics = Vec::new();
    layers::replay_metrics(
        &rec,
        &replayed,
        kind == Kind::FleetCold,
        traced_p50,
        &mut metrics,
    );
    let experiments = scrape.get("campaign_experiment_seconds_count");
    let drive_calls = scrape.get("profipy_drive_calls_total");
    let worker = worker.unwrap_or_default();
    let eps = |o: &Outcome| ratio(o.executed as f64, o.wall_s);
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push((name.to_string(), value, unit));
    };
    put("pyrt.virtual_s", traced.virtual_s, "s");
    put(
        "campaign.lock_wait_ms_p50",
        median(&traced.lock_wait_ms),
        "ms",
    );
    put(
        "campaign.queue_wait_ms_mean",
        scrape.mean_ms("campaign_queue_wait_seconds"),
        "ms",
    );
    put(
        "campaign.prepare_ms_mean",
        scrape.mean_ms("campaign_prepare_seconds"),
        "ms",
    );
    put(
        "campaign.experiment_ms_mean",
        scrape.mean_ms("campaign_experiment_seconds"),
        "ms",
    );
    put("campaign.drive_calls", drive_calls, "count");
    put(
        "campaign.experiments_per_drive",
        ratio(experiments, drive_calls),
        "count",
    );
    for cache in ["parse", "scan", "prepare", "coverage", "mutant"] {
        let name = format!("campaign.cache.{cache}_hit_ratio");
        put(&name, scrape.hit_ratio(cache), "ratio");
    }
    put("campaign.queue.take_next_us", take_next_us, "us");
    put(
        "cluster.lease_ms_mean",
        scrape.mean_ms("fleet_lease_seconds"),
        "ms",
    );
    put(
        "cluster.checkin_ms_mean",
        scrape.mean_ms("fleet_checkin_seconds"),
        "ms",
    );
    let useful_leases = worker.leases.saturating_sub(worker.empty_leases) as f64;
    put(
        "cluster.jobs_per_lease",
        ratio(worker.executed as f64, useful_leases),
        "count",
    );
    put(
        "cluster.lease_useful_ratio",
        ratio(useful_leases, worker.leases as f64),
        "ratio",
    );
    put(
        "cluster.upload_retries",
        worker.upload_retries as f64,
        "count",
    );
    put("httpd.healthz_ms_p50", median(&traced.healthz_ms), "ms");
    put(
        "httpd.server_ms_mean",
        scrape.mean_ms("httpd_request_seconds"),
        "ms",
    );
    put(
        "httpd.queue_wait_ms_mean",
        scrape.mean_ms("httpd_queue_wait_seconds"),
        "ms",
    );
    put("obs.metrics_ms_p50", median(&scrape_ms), "ms");
    put(
        "trace.spans_per_campaign",
        stats::mean(&spans_per_campaign),
        "count",
    );
    put(
        "trace.overhead_frac",
        1.0 - ratio(eps(&traced), eps(&plain)),
        "ratio",
    );

    write_spans(args, &rec);
    Ok(metrics)
}

/// Writes the traced run's spans as JSON into the build directory.
fn write_spans(args: &Args, rec: &Recorder) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench-traces");
    let path = dir.join(format!("{}-seed{}.json", args.kind.name(), args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rec.to_value().compact()));
    match written {
        Ok(()) => println!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let cleared = clear_profipy_env();
    let refs = match args.kind {
        Kind::ScanHeavy => Vec::new(),
        _ => workload::references()?,
    };
    if args.setup_probe {
        let mut tally = Tally::default();
        let (pass, _) = run_pass(&args, 0, 0, &refs, None, &mut tally)?;
        pass.service.shutdown();
        if !tally.failures.is_empty() {
            return Err(format!("warm-up failed: {:?}", tally.failures));
        }
        println!("{{\"setup_s\": {}}}", pass.setup_s);
        return Ok(0);
    }
    let count = args.kind.campaigns(args.seconds);
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} campaigns={} engine={:?} \
         executor_cores={} available_parallelism={} cleared_env={:?}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        count,
        pyrt::Vm::new().engine(),
        workload::EXECUTOR_CORES,
        std::thread::available_parallelism().map_or(0, usize::from),
        cleared
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&args, &refs, count, &mut tally)?
    } else {
        end_to_end(&args, &refs, count, &mut tally)?
    };
    print_result(&tally, &metrics);
    Ok(if tally.failures.is_empty() { 0 } else { 1 })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
