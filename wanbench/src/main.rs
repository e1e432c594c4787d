//! `wanbench`: the benchmark of the Teal serving stack. It starts a
//! `ServeDaemon` and a `TealServer` on loopback in this process, sends
//! generated inputs through `TealClient`, checks every reply, and prints
//! one JSON record as its last line of standard output.
//!
//! ```text
//! wanbench --workload <solve_1024|wire_steady|wire_mixed> --seed <n>
//!          --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! With `--trace 0` the record carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, and `--spans` names the
//! file the in-memory spans are written to. The process exits non-zero
//! when any reply failed or was invalid. `run.py` builds this binary,
//! stamps the record with the machine and settings, and prints the
//! benchmark's result line. See `README.md` for workloads and metrics.

mod check;
mod deploy;
mod layers;
mod load;
mod report;
mod solve;
mod trace;
mod wire;

use report::{Json, Metrics};
use std::time::{Duration, Instant};
use trace::Spans;

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Option<std::path::PathBuf>,
}

impl Args {
    /// A share of the run's measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// What a workload hands back to be reported.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// False when the load generator fell behind its schedule by more
    /// than the stated bound: the latency figures are then not trusted.
    pub valid: bool,
    pub notes: Vec<(&'static str, Json)>,
    pub spans: Option<Spans>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(why);
        }
    }
}

/// Time of a fixed integer loop that shares no code with the system under
/// test, before and after the workload: on a shared machine it shows how
/// fast the host ran this process, so records taken under different host
/// load can be told apart. Reported, never used to adjust a metric.
fn host_probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0u64;
    for i in 0..20_000_000u64 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    std::hint::black_box(x);
    report::ms(t0.elapsed())
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wanbench: {e}");
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let probe_before = host_probe_ms();
    let mut out = match args.workload.as_str() {
        "solve_1024" => solve::run(&args),
        "wire_steady" => wire::run(&args, wire::Mix::Steady),
        "wire_mixed" => wire::run(&args, wire::Mix::Mixed),
        other => {
            eprintln!("wanbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if !args.trace {
        out.metrics
            .put("peak_rss_mib", report::peak_rss_mib(), "MiB", 1);
    }
    let mut notes = std::mem::take(&mut out.notes);
    notes.push((
        "host_probe_ms",
        Json::Arr(vec![Json::Num(probe_before), Json::Num(host_probe_ms())]),
    ));
    if let Some(spans) = &out.spans {
        notes.push(("self_times", spans.self_times_json()));
        if let Some(path) = &args.spans {
            if let Err(e) = spans.write(path, origin) {
                out.fail(format!("writing spans to {}: {e}", path.display()));
            }
        }
    }
    if let Some(m) = out.metrics.0.iter().find(|m| !m.value.is_finite()) {
        let why = format!("metric {} is not a finite number", m.name);
        out.fail(why);
    }
    let correct = out.failed == 0;
    let record = Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        ("correct", Json::Bool(correct)),
        ("valid", Json::Bool(out.valid)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "failed_pct",
            Json::Num(100.0 * out.failed as f64 / out.attempted.max(1) as f64),
        ),
        (
            "errors",
            Json::Arr(out.errors.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", out.metrics.to_json()),
        (
            "notes",
            Json::Obj(notes.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
        ),
    ]);
    println!("{}", record.render());
    if !correct {
        for e in &out.errors {
            eprintln!("wanbench: {e}");
        }
        std::process::exit(1);
    }
}
