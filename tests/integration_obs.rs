//! Integration of the `obs` tracing subsystem with the full stack:
//! the aggregator sink re-derives `mapreduce::metrics` exactly, the
//! event stream is a deterministic function of configuration and seed
//! (golden digests), the exporters produce valid output, and recorded
//! streams obey their per-lane lifecycle invariants.

use std::collections::BTreeMap;

use dfs::experiment::{Experiment, Policy};
use dfs::mapreduce::metrics::TaskDetail;
use dfs::mapreduce::{MapLocality, RunResult};
use dfs::obs::aggregate::Aggregator;
use dfs::obs::chrome::ChromeTraceSink;
use dfs::obs::event::{DegradedPhase, Lane, SimEvent};
use dfs::obs::json::Json;
use dfs::obs::jsonl::{event_to_json, parse_line, JsonlSink};
use dfs::obs::schema::{validate_jsonl, TraceSchema, TRACE_SCHEMA_V1};
use dfs::obs::sink::VecSink;
use dfs::presets;
use dfs::simkit::time::SimTime;
use proptest::prelude::*;

const POLICIES: [Policy; 3] = [
    Policy::LocalityFirst,
    Policy::BasicDegradedFirst,
    Policy::EnhancedDegradedFirst,
];

/// Runs `exp` traced into a buffering sink.
fn trace(exp: &Experiment, policy: Policy, seed: u64) -> (RunResult, Vec<(SimTime, SimEvent)>) {
    let mut sink = VecSink::new();
    let result = exp.run_traced(policy, seed, &mut sink).expect("traced run");
    (result, sink.events)
}

/// Asserts every aggregator-derived counter equals its
/// `mapreduce::metrics` twin — exactly, including f64 bit patterns,
/// which both sides guarantee by summing in completion order.
fn assert_counters_match(exp: &Experiment, policy: Policy, seed: u64) {
    let mut agg = Aggregator::new(exp.aggregator_config(seed));
    let result = exp.run_traced(policy, seed, &mut agg).expect("traced run");
    let r = agg.report();
    let label = format!("{} seed {seed}", policy.name());
    assert_eq!(
        r.maps_node_local,
        result.map_count(MapLocality::NodeLocal),
        "{label}: node-local"
    );
    assert_eq!(
        r.maps_rack_local,
        result.map_count(MapLocality::RackLocal),
        "{label}: rack-local"
    );
    assert_eq!(
        r.maps_remote,
        result.map_count(MapLocality::Remote),
        "{label}: remote"
    );
    assert_eq!(
        r.maps_degraded,
        result.map_count(MapLocality::Degraded),
        "{label}: degraded"
    );
    let reduces = result
        .tasks
        .iter()
        .filter(|t| matches!(t.detail, TaskDetail::Reduce { .. }))
        .count();
    assert_eq!(r.reduces, reduces, "{label}: reduces");
    assert_eq!(r.jobs_finished, result.jobs.len(), "{label}: jobs");
    assert_eq!(
        r.degraded_read_secs,
        result.degraded_read_secs(),
        "{label}: degraded read times must match element-wise"
    );
    assert_eq!(
        r.mean_normal_map_secs,
        result.mean_normal_map_secs(),
        "{label}: mean normal map"
    );
    assert_eq!(
        r.mean_degraded_map_secs,
        result.mean_degraded_map_secs(),
        "{label}: mean degraded map"
    );
    assert_eq!(
        r.mean_reduce_secs,
        result.mean_reduce_secs(),
        "{label}: mean reduce"
    );
    assert!(
        r.makespan_secs <= result.makespan.as_secs_f64() + 1e-12,
        "{label}: last event at {} but makespan is {}",
        r.makespan_secs,
        result.makespan.as_secs_f64()
    );
}

#[test]
fn aggregator_rederives_metrics_counters_exactly() {
    let small = presets::small_default();
    for policy in POLICIES {
        for seed in [1, 2] {
            assert_counters_match(&small, policy, seed);
        }
    }
    // The paper preset adds reduce tasks and speculation to the mix.
    let paper = presets::simulation_default();
    assert_counters_match(&paper, Policy::EnhancedDegradedFirst, 1);
    assert_counters_match(&paper, Policy::LocalityFirst, 1);
}

#[test]
fn windowed_aggregator_matches_exact_on_paper_presets() {
    use dfs::obs::aggregate::{AggregatorConfig, AggregatorMode};
    use dfs::simkit::stats::QuantileSketch;
    // Windowed mode on the Fig. 7 presets: utilization identical when
    // the window equals the exact bucket, counts/means exact, and every
    // sketch percentile within its documented relative-error bound of
    // the sample it estimates (the rounded-rank order statistic; the
    // exact report interpolates between neighbours, which for sparse
    // samples can sit arbitrarily far from either).
    let close = |got: Option<f64>, samples: &[f64], p: f64, what: &str| {
        if samples.is_empty() {
            assert!(
                got.is_none(),
                "{what}: sketch reported {got:?} for no samples"
            );
            return;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let want = sorted[(p * (sorted.len() - 1) as f64).round() as usize];
        let g = got.unwrap_or_else(|| panic!("{what}: sketch empty but exact has samples"));
        assert!(
            (g - want).abs() <= want.abs() * QuantileSketch::RELATIVE_ERROR + 1e-9,
            "{what}: windowed {g} vs exact rank sample {want}"
        );
    };
    for exp in [presets::small_default(), presets::simulation_default()] {
        for policy in [Policy::LocalityFirst, Policy::EnhancedDegradedFirst] {
            let cfg = exp.aggregator_config(1);
            let mut exact = Aggregator::new(cfg.clone());
            let mut windowed = Aggregator::new(AggregatorConfig {
                mode: AggregatorMode::Windowed {
                    window_secs: cfg.bucket.as_micros() / 1_000_000,
                    max_windows: 4096,
                },
                ..cfg
            });
            let mut tee = dfs::obs::sink::Tee::new(&mut exact, &mut windowed);
            exp.run_traced(policy, 1, &mut tee).expect("traced run");
            let re = exact.report();
            let rw = windowed.report();
            let label = policy.name();
            assert_eq!(rw.slot_utilization, re.slot_utilization, "{label}: util");
            assert_eq!(rw.bucket_secs, re.bucket_secs, "{label}: bucket");
            assert_eq!(rw.link_utilization, re.link_utilization, "{label}: links");
            assert_eq!(rw.maps_degraded, re.maps_degraded, "{label}: degraded");
            assert_eq!(rw.jobs_finished, re.jobs_finished, "{label}: jobs");
            assert_eq!(rw.overlap_secs, re.overlap_secs, "{label}: overlap");
            assert_eq!(
                rw.mean_degraded_map_secs, re.mean_degraded_map_secs,
                "{label}: mean degraded"
            );
            assert_eq!(
                rw.peak_jobs_in_flight, re.peak_jobs_in_flight,
                "{label}: peak jobs"
            );
            close(
                rw.degraded_read_p50,
                &re.degraded_read_secs,
                0.50,
                "fetch p50",
            );
            close(
                rw.degraded_read_p95,
                &re.degraded_read_secs,
                0.95,
                "fetch p95",
            );
            close(
                rw.degraded_read_p99,
                &re.degraded_read_secs,
                0.99,
                "fetch p99",
            );
            close(
                rw.job_latency_p50,
                &re.job_latency_secs,
                0.50,
                "latency p50",
            );
            close(
                rw.job_latency_p95,
                &re.job_latency_secs,
                0.95,
                "latency p95",
            );
            close(
                rw.job_latency_p99,
                &re.job_latency_secs,
                0.99,
                "latency p99",
            );
        }
    }
}

#[test]
fn traced_run_returns_untraced_results() {
    let exp = presets::small_default();
    for policy in POLICIES {
        let plain = exp.run(policy, 3).expect("plain run");
        let (traced, events) = trace(&exp, policy, 3);
        assert_eq!(plain, traced, "{} diverged under tracing", policy.name());
        assert!(!events.is_empty());
    }
}

/// FNV-1a over the exact JSONL bytes of a traced run.
fn stream_digest(exp: &Experiment, policy: Policy, seed: u64) -> (u64, usize) {
    let mut sink = JsonlSink::new(Vec::new());
    exp.run_traced(policy, seed, &mut sink).expect("traced run");
    let bytes = sink.finish().expect("in-memory sink");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h, bytes.len())
}

// Golden digests of the full JSONL event stream on the paper's
// simulation preset (the Figure 7 configuration), seed 1. A mismatch
// means the instrumentation or the simulation itself changed behaviour —
// an intentional change must re-derive these and call it out in review.
const GOLDEN_STREAM_PAPER_LF_1: u64 = 0x0dbc_7dd9_c7c5_269e;
const GOLDEN_STREAM_PAPER_BDF_1: u64 = 0x808d_a41a_784e_8b6f;
const GOLDEN_STREAM_PAPER_EDF_1: u64 = 0x1d8d_cd92_cc7c_0b76;

#[test]
fn event_stream_goldens_are_stable() {
    let paper = presets::simulation_default();
    let cases: [(Policy, u64); 3] = [
        (Policy::LocalityFirst, GOLDEN_STREAM_PAPER_LF_1),
        (Policy::BasicDegradedFirst, GOLDEN_STREAM_PAPER_BDF_1),
        (Policy::EnhancedDegradedFirst, GOLDEN_STREAM_PAPER_EDF_1),
    ];
    let mut drifted = Vec::new();
    for (policy, want) in cases {
        let (a, len_a) = stream_digest(&paper, policy, 1);
        let (b, len_b) = stream_digest(&paper, policy, 1);
        assert_eq!(
            (a, len_a),
            (b, len_b),
            "{}: repeated traces must be byte-identical",
            policy.name()
        );
        if a != want {
            drifted.push(format!(
                "{} seed 1: got {a:#018x} ({len_a} bytes), want {want:#018x}",
                policy.name()
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "event-stream goldens drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn flow_rate_filter_off_is_byte_identical_and_on_thins_stream() {
    use dfs::obs::sink::{FlowRateFilter, FlowRateFilterConfig};
    use dfs::simkit::time::SimDuration;
    let paper = presets::simulation_default();
    let stream = |filter: Option<FlowRateFilterConfig>| -> String {
        let mut sink = JsonlSink::new(Vec::new());
        match filter {
            Some(cfg) => {
                let mut f = FlowRateFilter::new(&mut sink, cfg);
                paper
                    .run_traced(Policy::EnhancedDegradedFirst, 1, &mut f)
                    .expect("traced run");
            }
            None => {
                paper
                    .run_traced(Policy::EnhancedDegradedFirst, 1, &mut sink)
                    .expect("traced run");
            }
        }
        String::from_utf8(sink.finish().expect("in-memory sink")).expect("utf8")
    };
    let plain = stream(None);
    // An attached filter with zero thresholds must not change a byte.
    let zeroed = stream(Some(FlowRateFilterConfig {
        min_delta_bps: 0.0,
        min_interval: SimDuration::ZERO,
    }));
    assert_eq!(plain, zeroed, "zero-threshold filter changed the stream");
    // Real thresholds must drop flow_rate lines and nothing else, and the
    // thinned stream must still validate against the schema.
    let thinned = stream(Some(FlowRateFilterConfig {
        min_delta_bps: 1e6,
        min_interval: SimDuration::from_secs(5),
    }));
    let rates = |s: &str| {
        s.lines()
            .filter(|l| l.contains("\"ev\":\"flow_rate\""))
            .count()
    };
    let others = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("\"ev\":\"flow_rate\""))
            .count()
    };
    assert!(
        rates(&thinned) < rates(&plain),
        "filter dropped no flow_rate events ({} vs {})",
        rates(&thinned),
        rates(&plain)
    );
    assert_eq!(others(&thinned), others(&plain), "non-rate events changed");
    let schema = TraceSchema::parse(TRACE_SCHEMA_V1).expect("schema parses");
    assert_eq!(
        validate_jsonl(&schema, &thinned).expect("thinned trace validates"),
        thinned.lines().count()
    );
}

#[test]
fn trace_diff_attributes_an_injected_failure() {
    use dfs::experiment::FailureSpec;
    use dfs::obs::diff::{diff_streams, render};
    // Same preset, same seed, one injected failure: the diff must pin
    // the slowdown on the failure-affected lanes. The rendered text is
    // golden — it is a deterministic function of the two traces.
    let failed = presets::small_default();
    let mut healthy = failed.clone();
    healthy.failure = FailureSpec::None;
    let (_, a) = trace(&healthy, Policy::LocalityFirst, 1);
    let (_, b) = trace(&failed, Policy::LocalityFirst, 1);
    let diff = diff_streams(&a, &b, 5);
    assert!(
        diff.makespan_b > diff.makespan_a,
        "injected failure must slow the run ({} vs {})",
        diff.makespan_a,
        diff.makespan_b
    );
    let text = render(&diff);
    let golden = "\
makespan: A 170.10s  B 450.73s  (+280.64s)\n\
final lane: A job 0  B job 0\n\
lanes: 255 shared, 0 only in A, 76 only in B\n\
top end shifts (B - A):\n\
\x20 map 0/199                end   +405.36s  dur   +405.36s  (A 0.00..12.06, B 0.00..417.42)\n\
\x20 map 0/205                end   +405.36s  dur   +405.36s  (A 0.00..12.06, B 0.00..417.42)\n\
\x20 map 0/106                end   +401.97s  dur   +401.97s  (A 0.00..48.06, B 0.00..450.04)\n\
\x20 map 0/110                end   +401.97s  dur   +401.97s  (A 0.00..48.06, B 0.00..450.04)\n\
\x20 map 0/176                end   +393.76s  dur   +393.76s  (A 0.00..24.06, B 0.00..417.82)\n\
only in B:\n\
\x20 flow 14                  85.80..407.42 (5 events)\n\
\x20 flow 15                  85.80..407.42 (5 events)\n\
\x20 flow 16                  85.80..407.42 (5 events)\n\
\x20 flow 17                  85.80..407.42 (5 events)\n\
\x20 flow 18                  85.80..407.42 (5 events)\n\
\x20 flow 19                  85.80..407.42 (5 events)\n\
\x20 flow 20                  85.80..407.42 (5 events)\n\
\x20 flow 21                  85.80..407.42 (5 events)\n\
\x20 flow 22                  85.80..407.42 (5 events)\n\
\x20 flow 23                  85.80..87.83 (8 events)\n\
\x20 flow 24                  85.80..407.42 (5 events)\n\
\x20 flow 25                  86.00..407.82 (5 events)\n\
\x20 ... and 64 more\n";
    assert_eq!(
        text, golden,
        "trace-diff golden drifted — an intentional change must re-pin it"
    );
}

#[test]
fn jsonl_lines_round_trip_and_validate() {
    let exp = presets::small_default();
    let mut sink = JsonlSink::new(Vec::new());
    exp.run_traced(Policy::EnhancedDegradedFirst, 1, &mut sink)
        .expect("traced run");
    let text = String::from_utf8(sink.finish().expect("in-memory sink")).expect("utf8");
    let schema = TraceSchema::parse(TRACE_SCHEMA_V1).expect("schema parses");
    let validated = validate_jsonl(&schema, &text).expect("trace validates");
    assert_eq!(validated, text.lines().count());
    assert!(validated > 100, "expected a substantial stream");
    for line in text.lines() {
        let (at, event) = parse_line(line).expect(line);
        assert_eq!(event_to_json(at, &event), line, "round-trip changed bytes");
    }
}

#[test]
fn chrome_trace_of_paper_preset_is_valid_json() {
    let exp = presets::simulation_default();
    let mut sink = ChromeTraceSink::new(Vec::new(), exp.chrome_config());
    exp.run_traced(Policy::EnhancedDegradedFirst, 1, &mut sink)
        .expect("traced run");
    let text = String::from_utf8(sink.finish().expect("in-memory sink")).expect("utf8");
    let doc = Json::parse(&text).expect("chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(events.len() > 1000, "expected a rich timeline");
    let count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .count()
    };
    assert_eq!(count("B"), count("E"), "unbalanced duration slices");
    assert_eq!(count("b"), count("e"), "unbalanced async slices");
}

/// Checks the lifecycle invariants of one recorded stream.
fn assert_stream_invariants(events: &[(SimTime, SimEvent)]) {
    // Global timestamps are non-decreasing; per-lane monotonicity
    // follows, but group lanes anyway to check lifecycle protocols.
    let mut last = SimTime::ZERO;
    let mut lanes: BTreeMap<Lane, Vec<(SimTime, &SimEvent)>> = BTreeMap::new();
    for (at, event) in events {
        assert!(*at >= last, "timestamps went backwards at {event:?}");
        last = *at;
        lanes.entry(event.lane()).or_default().push((*at, event));
    }
    for (lane, stream) in &lanes {
        let count = |pred: &dyn Fn(&SimEvent) -> bool| -> usize {
            stream.iter().filter(|(_, e)| pred(e)).count()
        };
        match lane {
            Lane::Job(_) => {
                let started = count(&|e| matches!(e, SimEvent::JobStarted { .. }));
                let finished = count(&|e| matches!(e, SimEvent::JobFinished { .. }));
                assert_eq!((started, finished), (1, 1), "{lane:?}: start/finish pair");
            }
            Lane::Map(..) => assert_map_lane_invariants(lane, stream),
            Lane::Reduce(..) => {
                let launched = count(&|e| matches!(e, SimEvent::ReduceLaunched { .. }));
                let done = count(&|e| matches!(e, SimEvent::ReduceDone { .. }));
                assert_eq!((launched, done), (1, 1), "{lane:?}: launch/done pair");
            }
            Lane::Flow(_) => {
                assert!(
                    matches!(stream.first(), Some((_, SimEvent::FlowStarted { .. }))),
                    "{lane:?}: must open with FlowStarted"
                );
                assert!(
                    matches!(stream.last(), Some((_, SimEvent::FlowFinished { .. }))),
                    "{lane:?}: must close with FlowFinished"
                );
                let started = count(&|e| matches!(e, SimEvent::FlowStarted { .. }));
                let finished = count(&|e| matches!(e, SimEvent::FlowFinished { .. }));
                assert_eq!((started, finished), (1, 1), "{lane:?}: start/finish pair");
            }
            Lane::Node(_) | Lane::Repair(_) => {}
        }
    }
}

/// Map-attempt lanes: exactly one launch, exactly one terminal (done
/// xor cancelled), and degraded phases non-overlapping, in fetch →
/// decode → process order, contiguous through the attempt's lifetime.
fn assert_map_lane_invariants(lane: &Lane, stream: &[(SimTime, &SimEvent)]) {
    let launches: Vec<SimTime> = stream
        .iter()
        .filter(|(_, e)| matches!(e, SimEvent::MapLaunched { .. }))
        .map(|(at, _)| *at)
        .collect();
    assert_eq!(launches.len(), 1, "{lane:?}: exactly one launch");
    let done: Vec<SimTime> = stream
        .iter()
        .filter(|(_, e)| matches!(e, SimEvent::MapDone { .. }))
        .map(|(at, _)| *at)
        .collect();
    let cancelled: Vec<SimTime> = stream
        .iter()
        .filter(|(_, e)| matches!(e, SimEvent::MapCancelled { .. }))
        .map(|(at, _)| *at)
        .collect();
    assert_eq!(
        done.len() + cancelled.len(),
        1,
        "{lane:?}: exactly one terminal event"
    );
    let terminal = done.first().or(cancelled.first()).copied().unwrap();

    // Phase protocol: begins and ends alternate, each end matches the
    // open phase, phases never repeat and appear in execution order,
    // and consecutive phases are contiguous in time.
    let mut open: Option<(DegradedPhase, SimTime)> = None;
    let mut spans: Vec<(DegradedPhase, SimTime, SimTime)> = Vec::new();
    for (at, event) in stream {
        match event {
            SimEvent::PhaseBegin { phase, .. } => {
                assert!(
                    open.is_none(),
                    "{lane:?}: phase {phase:?} begins inside another phase"
                );
                if let Some(&(prev, _, prev_end)) = spans.last() {
                    assert!(prev < *phase, "{lane:?}: phase order violated");
                    assert_eq!(
                        prev_end, *at,
                        "{lane:?}: gap between {prev:?} and {phase:?}"
                    );
                }
                open = Some((*phase, *at));
            }
            SimEvent::PhaseEnd { phase, .. } => {
                let (open_phase, begin) = open
                    .take()
                    .unwrap_or_else(|| panic!("{lane:?}: {phase:?} ends without beginning"));
                assert_eq!(open_phase, *phase, "{lane:?}: mismatched phase end");
                assert!(begin <= *at, "{lane:?}: negative phase span");
                spans.push((*phase, begin, *at));
            }
            _ => {}
        }
    }
    assert!(open.is_none(), "{lane:?}: phase left open past terminal");
    if let Some(&(_, _, last_end)) = spans.last() {
        assert_eq!(
            last_end, terminal,
            "{lane:?}: final phase must end at the terminal event"
        );
        assert_eq!(spans[0].1, launches[0], "{lane:?}: fetch starts at launch");
        if !done.is_empty() {
            // A completed degraded attempt runs all three phases.
            let kinds: Vec<DegradedPhase> = spans.iter().map(|&(p, _, _)| p).collect();
            assert_eq!(
                kinds,
                vec![
                    DegradedPhase::FetchK,
                    DegradedPhase::Decode,
                    DegradedPhase::Process
                ],
                "{lane:?}: completed degraded attempt missing phases"
            );
        }
    }
}

#[test]
fn paper_preset_stream_obeys_invariants() {
    let exp = presets::simulation_default();
    for policy in POLICIES {
        let (result, events) = trace(&exp, policy, 1);
        assert_stream_invariants(&events);
        let map_dones = events
            .iter()
            .filter(|(_, e)| matches!(e, SimEvent::MapDone { .. }))
            .count();
        let map_records = result
            .tasks
            .iter()
            .filter(|t| t.map_locality().is_some())
            .count();
        assert_eq!(
            map_dones,
            map_records,
            "{}: one MapDone per map record",
            policy.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized seeds and policies on the small preset: every
    /// recorded stream obeys the lane lifecycle, phase-ordering and
    /// phase-contiguity invariants.
    #[test]
    fn recorded_streams_obey_invariants(seed in 0u64..500, policy_idx in 0usize..3) {
        let exp = presets::small_default();
        let (result, events) = trace(&exp, POLICIES[policy_idx], seed);
        assert_stream_invariants(&events);
        let done = events
            .iter()
            .filter(|(_, e)| matches!(e, SimEvent::MapDone { .. }))
            .count();
        prop_assert_eq!(
            done,
            result.tasks.iter().filter(|t| t.map_locality().is_some()).count()
        );
    }

    /// Any unicode string survives a `\uXXXX`-escaped JSON round trip:
    /// escape every char (astral code points as surrogate pairs), parse
    /// with `obs::json`, and compare.
    #[test]
    fn json_unicode_escape_round_trips(s in "\\PC*") {
        use dfs::obs::json::Json;
        let mut encoded = String::from('"');
        for ch in s.chars() {
            let mut units = [0u16; 2];
            for unit in ch.encode_utf16(&mut units) {
                encoded.push_str(&format!("\\u{unit:04x}"));
            }
        }
        encoded.push('"');
        let parsed = Json::parse(&encoded).unwrap();
        prop_assert_eq!(parsed, Json::String(s));
    }
}
