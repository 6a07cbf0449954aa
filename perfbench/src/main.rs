//! `perfbench`: runs one benchmark workload through the crates' public
//! entry points, checks its outputs, and prints one JSON document with
//! every metric, its unit and its clock.
//!
//! ```text
//! perfbench --workload <train-uks|serve-drift|fleet-churn|serve-ooc>
//!           --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! `--trace 0` sets the workload up several times (the median is
//! `setup_s`), then measures for `--seconds`. `--trace 1` does the same
//! with a span around every call into a layer, replays the measured
//! phase traced after an untraced pass, and reports per-layer host
//! times, the tracing overhead and the simulated per-layer metrics.
//! Run it through `perfbench/run.py`, which builds it first.

mod common;
mod fleet;
mod serving;
mod trace;
mod train;

use serde_json::Value;

use std::time::Instant;

use common::{host_speed, int, num, obj, peak_rss_mib, text, Check, Clock, Metric, Phase, RunCfg};
use trace::Tracer;

/// A benchmark workload: a set-up, run several times, and a measured
/// phase over the last set-up.
pub trait Workload {
    type State;

    fn setup(&self, cfg: &RunCfg, tr: &Tracer) -> Self::State;

    /// Checks of the set-up that only the traced run makes.
    fn verify_setup(&self, _st: &Self::State, _tr: &Tracer, _p: &mut Phase) {}

    /// Runs the measured phase; with `fixed`, makes exactly that many
    /// time-bounded calls instead of filling `cfg.seconds`.
    fn measure(&self, cfg: &RunCfg, st: &Self::State, tr: &Tracer, fixed: Option<usize>) -> Phase;
}

/// The spans wrapping each workload's engine entry point.
const ENGINE_SPANS: [&str; 3] = ["core.run_epoch", "serve.engine", "fleet.serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            "--spans" => spans = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        spans,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
    };
    let out = match args.workload.as_str() {
        "train-uks" => run(&train::TrainUks, &args, cfg),
        "serve-drift" => run(&serving::serve_drift(), &args, cfg),
        "serve-ooc" => run(&serving::serve_ooc(), &args, cfg),
        "fleet-churn" => run(&fleet::FleetChurn, &args, cfg),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!(
        "{}",
        serde_json::to_string(&out).expect("result serializes")
    );
}

fn run<W: Workload>(w: &W, args: &Args, cfg: RunCfg) -> Value {
    let run_id = cfg.derive(0xbe7c);
    let tr = Tracer::new(args.trace, run_id);
    let (setup_s, state) = common::repeat_setup(&tr, || w.setup(&cfg, &tr));
    let mut setup_checks = Phase::default();
    if args.trace {
        tr.span("bench.check", || {
            w.verify_setup(&state, &tr, &mut setup_checks)
        });
    }

    let t = Instant::now();
    let plain = w.measure(&cfg, &state, &Tracer::off(), None);
    let plain_s = t.elapsed().as_secs_f64();
    let (speed, samples) = host_speed();

    let mut out: Vec<(&str, Value)> = vec![
        ("workload", text(&args.workload)),
        ("seed", int(args.seed)),
        ("trace", Value::Bool(args.trace)),
    ];
    let mut checks = setup_checks.checks;
    let (attempted, failed) = (plain.attempted, plain.failed);
    if args.trace {
        let t = Instant::now();
        let traced = tr.span("bench.measure", || {
            w.measure(&cfg, &state, &tr, Some(plain.calls))
        });
        let traced_s = t.elapsed().as_secs_f64();
        checks.extend(plain.checks);
        checks.extend(traced.checks);
        checks.push(Check {
            name: "traced run's simulated outputs equal the untraced run's".into(),
            ok: traced.fingerprint == plain.fingerprint
                && metric_values(&traced.layers) == metric_values(&plain.layers),
            detail: format!("{} bytes of simulated output", plain.fingerprint.len()),
        });
        let overhead_s = traced_s - plain_s;
        let mut layers = traced.layers;
        layers.extend(host_layers(&tr, overhead_s));
        out.push(("per_layer", metrics_json(&layers)));
        out.push(("layer_table", layer_table(&tr)));
        out.push((
            "host",
            obj([
                ("untraced_measure_s", num(plain_s)),
                ("traced_measure_s", num(traced_s)),
                ("traced_total_s", num(tr.root_s())),
                ("overhead_s", num(overhead_s)),
                (
                    "call_s",
                    Value::Array(plain.call_s.iter().map(|&t| num(t)).collect()),
                ),
            ]),
        ));
        if let Some(path) = &args.spans {
            let body = obj([
                ("workload", text(&args.workload)),
                ("seed", int(args.seed)),
                ("run", int(run_id)),
                ("spans", tr.spans_json()),
            ]);
            let written = serde_json::to_string(&body)
                .map_err(|e| e.to_string())
                .and_then(|b| std::fs::write(path, b).map_err(|e| e.to_string()));
            if let Err(e) = written {
                checks.push(Check {
                    name: "spans written".into(),
                    ok: false,
                    detail: format!("{path}: {e}"),
                });
            }
        }
    } else {
        checks.extend(plain.checks);
        // Host figures at reference speed (see `common::host_speed`): the
        // phases' host metrics are throughputs, `setup_s` is a time.
        let mut e2e = plain.end_to_end;
        for m in &mut e2e {
            if m.clock == Clock::Host {
                m.value /= speed;
            }
        }
        e2e.push(Metric {
            name: "setup_s",
            value: setup_s * speed,
            unit: "s",
            clock: Clock::Host,
        });
        e2e.push(Metric {
            name: "peak_rss_mib",
            value: peak_rss_mib(),
            unit: "MiB",
            clock: Clock::Host,
        });
        out.push(("end_to_end", metrics_json(&e2e)));
        out.push((
            "host",
            obj([
                ("measure_s", num(plain_s)),
                (
                    "call_s",
                    Value::Array(plain.call_s.iter().map(|&t| num(t)).collect()),
                ),
                ("host_speed", num(speed)),
                ("speed_samples", int(samples as u64)),
            ]),
        ));
    }
    let failed_checks: Vec<Value> = checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| obj([("name", text(&c.name)), ("detail", text(&c.detail))]))
        .collect();
    out.push(("correct", Value::Bool(failed_checks.is_empty())));
    out.push((
        "checks_passed",
        int((checks.len() - failed_checks.len()) as u64),
    ));
    out.push(("checks_failed", Value::Array(failed_checks)));
    out.push(("attempted", int(attempted)));
    out.push(("failed", int(failed)));
    obj(out)
}

fn metric_values(ms: &[Metric]) -> Vec<(&'static str, u64)> {
    ms.iter().map(|m| (m.name, m.value.to_bits())).collect()
}

fn metrics_json(ms: &[Metric]) -> Value {
    obj(ms.iter().map(|m| {
        (
            m.name,
            obj([
                ("value", num(m.value)),
                ("unit", text(m.unit)),
                ("clock", text(m.clock.as_str())),
            ]),
        )
    }))
}

/// Host-time per-layer metrics every workload has, from the spans: the
/// set-up split into generation and the rest (per set-up), the engine
/// entry points and the benchmark's own code during the traced phase,
/// and the tracing overhead: measured (traced minus untraced phase, which
/// host noise dominates) and recorded spans times the cost of one.
fn host_layers(tr: &Tracer, overhead_s: f64) -> Vec<Metric> {
    let times = tr.layer_times();
    let get = |name: &str| times.get(name).copied().unwrap_or_default();
    let setup = get("bench.setup");
    let reps = setup.calls.max(1) as f64;
    let generate = get("graph.generate");
    let (engine_s, engine_calls) = ENGINE_SPANS
        .iter()
        .map(|&n| get(n))
        .fold((0.0, 0u64), |(s, c), t| (s + t.self_s, c + t.calls));
    let host = |name, value| Metric {
        name,
        value,
        unit: "s",
        clock: Clock::Host,
    };
    vec![
        host("host.setup.generate_s", generate.total_s / reps),
        host(
            "host.setup.build_s",
            (setup.total_s - generate.total_s) / reps,
        ),
        host("host.engine_call_s", engine_s / engine_calls.max(1) as f64),
        host("host.bench_self_s", get("bench.measure").self_s),
        host("trace.overhead_s", overhead_s),
        host("trace.span_cost_s", tr.len() as f64 * Tracer::span_cost_s()),
    ]
}

/// Every span name with its calls, total and self time, and its share
/// of the traced host time.
fn layer_table(tr: &Tracer) -> Value {
    let root = tr.root_s();
    Value::Array(
        tr.layer_times()
            .into_iter()
            .map(|(name, t)| {
                obj([
                    ("span", text(name)),
                    ("calls", int(t.calls)),
                    ("total_s", num(t.total_s)),
                    ("self_s", num(t.self_s)),
                    ("self_share", num(common::ratio(t.self_s, root))),
                ])
            })
            .collect(),
    )
}
