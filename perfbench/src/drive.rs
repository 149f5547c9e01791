//! The closed-loop client: one submitter and one status observer, each
//! on its own keep-alive connection.
//!
//! The submitter sends its next campaign only after it has fetched the
//! previous report. The observer polls the status of a campaign that
//! finished during warm-up, with a seeded exponential think time
//! between polls, and times each poll from its send.

use crate::spans::{Recorder, SpanId};
use crate::stats::Rng;
use crate::workload::{check_report, Submission};
use httpd::Client;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pause between the submitter's status polls of its own campaign.
const POLL_PAUSE: Duration = Duration::from_millis(2);
/// Mean observer think time between polls.
const THINK_MEAN_S: f64 = 0.020;
/// A campaign not completed after this long counts as failed.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(60);
/// Socket timeout of both client connections.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

pub fn client(addr: &str) -> Client {
    Client::new(addr).timeout(CLIENT_TIMEOUT)
}

/// One campaign whose report arrived and checked out.
pub struct Done {
    /// When the report arrived, seconds after the first submit.
    pub at_s: f64,
    pub executed: u64,
    /// Target lines submitted.
    pub loc: u64,
}

/// What one pass of submissions did.
#[derive(Default)]
pub struct Outcome {
    /// POST → `completed` → report fetched, per campaign (seconds).
    pub campaign_s: Vec<f64>,
    /// Every checked campaign, in completion order.
    pub done: Vec<Done>,
    /// Observer status-poll latencies (ms).
    pub status_ms: Vec<f64>,
    /// Observer `/healthz` latencies, polled right before each status
    /// poll (traced passes only).
    pub healthz_ms: Vec<f64>,
    /// Status minus `/healthz` latency of each such back-to-back pair:
    /// the time the status handler waited for the service lock.
    pub lock_wait_ms: Vec<f64>,
    /// First submit to last report fetched.
    pub wall_s: f64,
    /// Experiments executed, summed over the fetched reports.
    pub executed: u64,
    /// Target lines submitted.
    pub loc: u64,
    /// Sum of the reports' `total_virtual_secs`.
    pub virtual_s: f64,
    /// Operations attempted: campaigns plus observer polls.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Campaign ids, in submission order (failed submissions omitted).
    pub ids: Vec<String>,
    /// Fetched report bodies, in submission order ("" on failure).
    pub reports: Vec<String>,
}

fn span<R>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: Option<SpanId>,
    id: &str,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(rec) => rec.time(name, parent, id, f),
        None => f(),
    }
}

fn field(body: &str, key: &str) -> Result<String, String> {
    jsonlite::parse(body)?
        .req(key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("'{key}' is not a string"))
}

/// One closed-loop campaign: submit, poll to completion, fetch the
/// report. Returns `(id, report body)`.
fn run_campaign(
    client: &mut Client,
    sub: &Submission,
    rec: Option<&Recorder>,
    root: Option<SpanId>,
) -> Result<(String, String), String> {
    let resp = span(rec, "http.submit", root, &sub.spec.name, || {
        client.post_json("/api/campaigns", &sub.json)
    })
    .map_err(|e| format!("submit: {e}"))?;
    if resp.status != 201 {
        return Err(format!("submit: HTTP {} {}", resp.status, resp.text()));
    }
    let id = field(&resp.text(), "id")?;
    let status_path = format!("/api/campaigns/{id}");
    let started = Instant::now();
    loop {
        let resp = span(rec, "http.status", root, &id, || client.get(&status_path))
            .map_err(|e| format!("{id} status: {e}"))?;
        if resp.status != 200 {
            return Err(format!("{id} status: HTTP {}", resp.status));
        }
        match field(&resp.text(), "state")?.as_str() {
            "completed" => break,
            "failed" | "cancelled" => return Err(format!("{id} ended {}", resp.text())),
            _ if started.elapsed() > CAMPAIGN_TIMEOUT => {
                return Err(format!("{id} not completed after {CAMPAIGN_TIMEOUT:?}"))
            }
            _ => std::thread::sleep(POLL_PAUSE),
        }
    }
    let resp = span(rec, "http.report", root, &id, || {
        client.get(&format!("/api/campaigns/{id}/report"))
    })
    .map_err(|e| format!("{id} report: {e}"))?;
    if resp.status != 200 {
        return Err(format!("{id} report: HTTP {}", resp.status));
    }
    Ok((id, resp.text()))
}

/// Submits `subs` one after another and checks every report.
pub fn submit_all(
    client: &mut Client,
    subs: &[Submission],
    refs: &[String],
    rec: Option<&Recorder>,
    out: &mut Outcome,
) {
    let started = Instant::now();
    for sub in subs {
        out.attempted += 1;
        let root = rec.map(|r| r.open("campaign", None, &sub.spec.name));
        let t0 = Instant::now();
        let result = run_campaign(client, sub, rec, root);
        let elapsed = t0.elapsed().as_secs_f64();
        if let (Some(rec), Some(root)) = (rec, root) {
            rec.close(root);
        }
        let checked = result.and_then(|(id, body)| {
            let executed =
                check_report(sub.check, &body, refs).map_err(|e| format!("{id}: {e}"))?;
            Ok((id, body, executed))
        });
        match checked {
            Ok((id, body, executed)) => {
                out.campaign_s.push(elapsed);
                out.done.push(Done {
                    at_s: started.elapsed().as_secs_f64(),
                    executed,
                    loc: sub.loc as u64,
                });
                out.executed += executed;
                out.loc += sub.loc as u64;
                out.virtual_s += jsonlite::parse(&body)
                    .ok()
                    .and_then(|r| r.get("total_virtual_secs").and_then(|v| v.as_f64()))
                    .unwrap_or(0.0);
                out.ids.push(id);
                out.reports.push(body);
            }
            Err(e) => {
                out.failures.push(format!("{}: {e}", sub.spec.name));
                out.reports.push(String::new());
            }
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
}

/// The timed section: the submitter runs `subs` while the observer
/// polls `observe_id`. With a recorder, the observer also polls
/// `/healthz` right before each status poll (their difference is the
/// service-lock wait).
pub fn run_timed(
    addr: &str,
    subs: &[Submission],
    refs: &[String],
    observe_id: &str,
    think_seed: u64,
    rec: Option<&Recorder>,
) -> Outcome {
    let stop = AtomicBool::new(false);
    let observed = Mutex::new(Outcome::default());
    let mut out = Outcome::default();
    std::thread::scope(|scope| {
        let observer = scope.spawn(|| observe(addr, observe_id, think_seed, rec, &stop, &observed));
        let mut submitter = client(addr);
        submit_all(&mut submitter, subs, refs, rec, &mut out);
        stop.store(true, Ordering::SeqCst);
        if observer.join().is_err() {
            out.failures.push("observer thread panicked".into());
        }
    });
    let observed = observed.into_inner().expect("observer lock poisoned");
    out.status_ms = observed.status_ms;
    out.healthz_ms = observed.healthz_ms;
    out.lock_wait_ms = observed.lock_wait_ms;
    out.attempted += observed.attempted;
    out.failures.extend(observed.failures);
    out
}

fn observe(
    addr: &str,
    id: &str,
    think_seed: u64,
    rec: Option<&Recorder>,
    stop: &AtomicBool,
    out: &Mutex<Outcome>,
) {
    let mut rng = Rng::new(think_seed);
    let mut client = client(addr);
    let path = format!("/api/campaigns/{id}");
    let mut local = Outcome::default();
    loop {
        std::thread::sleep(Duration::from_secs_f64(rng.exp(THINK_MEAN_S)));
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let mut healthz_ms = None;
        if rec.is_some() {
            local.attempted += 1;
            let t0 = Instant::now();
            match span(rec, "http.healthz", None, id, || client.get("/healthz")) {
                Ok(resp) if resp.status == 200 => {
                    healthz_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
                    local.healthz_ms.extend(healthz_ms);
                }
                Ok(resp) => local
                    .failures
                    .push(format!("healthz: HTTP {}", resp.status)),
                Err(e) => local.failures.push(format!("healthz: {e}")),
            }
        }
        local.attempted += 1;
        let t0 = Instant::now();
        let resp = span(rec, "http.observe", None, id, || client.get(&path));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match resp {
            Ok(resp) if resp.status == 200 => match field(&resp.text(), "state").as_deref() {
                Ok("completed") => {
                    local.status_ms.push(ms);
                    local.lock_wait_ms.extend(healthz_ms.map(|h| ms - h));
                }
                other => local
                    .failures
                    .push(format!("observed {id}: state {other:?}")),
            },
            Ok(resp) => local
                .failures
                .push(format!("observed {id}: HTTP {}", resp.status)),
            Err(e) => local.failures.push(format!("observed {id}: {e}")),
        }
    }
    *out.lock().expect("observer lock poisoned") = local;
}
