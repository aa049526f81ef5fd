//! Property-based tests for the MapReduce engine: conservation and
//! ordering invariants over randomized cluster/job/failure
//! configurations, under a greedy reference policy.

use cluster::{FailureScenario, Topology};
use ecstore::placement::RackAwarePlacement;
use erasure::CodeParams;
use mapreduce::engine::{Engine, EngineConfig};
use mapreduce::job::JobSpec;
use mapreduce::metrics::TaskDetail;
use mapreduce::sched::{Heartbeat, MapScheduler};
use mapreduce::MapLocality;
use proptest::prelude::*;
use simkit::time::SimDuration;

struct Greedy;

impl MapScheduler for Greedy {
    fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
        'outer: while hb.free_map_slots() > 0 {
            for i in 0..hb.jobs().len() {
                let job = hb.jobs()[i];
                if hb.take_node_local(job).is_some()
                    || hb.take_rack_local(job).is_some()
                    || hb.take_remote(job).is_some()
                    || hb.take_degraded(job).is_some()
                {
                    continue 'outer;
                }
            }
            break;
        }
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[derive(Debug, Clone)]
struct Config {
    racks: usize,
    nodes_per_rack: usize,
    map_slots: u32,
    stripes: usize,
    map_secs: u64,
    reduce_tasks: usize,
    fail_node: Option<usize>,
    seed: u64,
}

fn config() -> impl Strategy<Value = Config> {
    (
        2usize..=4, // racks
        2usize..=4, // nodes per rack
        1u32..=3,   // map slots
        2usize..=8, // stripes
        1u64..=15,  // map secs
        0usize..=4, // reduce tasks
        proptest::option::of(0usize..16),
        any::<u64>(),
    )
        .prop_map(
            |(racks, nodes_per_rack, map_slots, stripes, map_secs, reduce_tasks, fail, seed)| {
                Config {
                    racks,
                    nodes_per_rack,
                    map_slots,
                    stripes,
                    map_secs,
                    reduce_tasks,
                    fail_node: fail.map(|f| f % (racks * nodes_per_rack)),
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_invariants_hold(cfg in config()) {
        // (4,2) fits every generated topology: racks*parity >= 4 needs
        // racks >= 2; n=4 <= nodes.
        let topo = Topology::homogeneous(cfg.racks, cfg.nodes_per_rack, cfg.map_slots, 1);
        let num_native = cfg.stripes * 2;
        let failure = match cfg.fail_node {
            Some(f) => FailureScenario::nodes([topo.node(f)]),
            None => FailureScenario::none(),
        };
        let job = JobSpec::builder("prop")
            .map_time(SimDuration::from_secs(cfg.map_secs), SimDuration::ZERO)
            .reduce_time(SimDuration::from_secs(5), SimDuration::ZERO)
            .reduce_tasks(cfg.reduce_tasks)
            .shuffle_ratio(if cfg.reduce_tasks > 0 { 0.01 } else { 0.0 })
            .build();
        let engine = Engine::builder(topo.clone())
            .code(CodeParams::new(4, 2).unwrap(), num_native)
            .placement(&RackAwarePlacement)
            .failure(failure.clone())
            .config(EngineConfig {
                block_bytes: 8 * 1024 * 1024,
                ..EngineConfig::default()
            })
            .seed(cfg.seed)
            .job(job)
            .build()
            .expect("engine builds");
        let lost = engine.store().lost_native_blocks(engine.cluster_state()).len();
        let result = engine.run(Box::new(Greedy)).expect("run completes");

        // 1. Every native block processed exactly once; reduces complete.
        let mut blocks: Vec<_> = result
            .tasks
            .iter()
            .filter_map(|t| match t.detail {
                TaskDetail::Map { block, .. } => Some(block),
                TaskDetail::Reduce { .. } => None,
            })
            .collect();
        prop_assert_eq!(blocks.len(), num_native);
        blocks.sort();
        blocks.dedup();
        prop_assert_eq!(blocks.len(), num_native, "a block ran twice");
        let reduces = result
            .tasks
            .iter()
            .filter(|t| matches!(t.detail, TaskDetail::Reduce { .. }))
            .count();
        prop_assert_eq!(reduces, cfg.reduce_tasks);

        // 2. Degraded task count equals lost native blocks.
        prop_assert_eq!(result.map_count(MapLocality::Degraded), lost);

        // 3. No task on the failed node.
        if let Some(f) = cfg.fail_node {
            let failed = topo.node(f);
            prop_assert!(result.tasks.iter().all(|t| t.node != failed));
        }

        // 4. Timing ordering per task.
        for t in &result.tasks {
            prop_assert!(t.assigned_at <= t.input_ready_at);
            prop_assert!(t.input_ready_at <= t.completed_at);
        }

        // 5. Map-slot capacity never exceeded (sweep-line per node).
        for node in topo.node_ids() {
            let mut events: Vec<(simkit::time::SimTime, i64)> = Vec::new();
            for t in result.tasks.iter().filter(|t| {
                t.node == node && matches!(t.detail, TaskDetail::Map { .. })
            }) {
                events.push((t.assigned_at, 1));
                events.push((t.completed_at, -1));
            }
            events.sort();
            let mut occ = 0i64;
            for (_, d) in events {
                occ += d;
                prop_assert!(occ <= cfg.map_slots as i64, "{node} over capacity");
            }
        }

        // 6. The run replays identically.
        let engine2 = Engine::builder(topo)
            .code(CodeParams::new(4, 2).unwrap(), num_native)
            .placement(&RackAwarePlacement)
            .failure(failure)
            .config(EngineConfig {
                block_bytes: 8 * 1024 * 1024,
                ..EngineConfig::default()
            })
            .seed(cfg.seed)
            .job(JobSpec::builder("prop")
                .map_time(SimDuration::from_secs(cfg.map_secs), SimDuration::ZERO)
                .reduce_time(SimDuration::from_secs(5), SimDuration::ZERO)
                .reduce_tasks(cfg.reduce_tasks)
                .shuffle_ratio(if cfg.reduce_tasks > 0 { 0.01 } else { 0.0 })
                .build())
            .build()
            .expect("engine rebuilds");
        let replay = engine2.run(Box::new(Greedy)).expect("replay completes");
        prop_assert_eq!(result, replay);
    }

    #[test]
    fn normal_mode_runtime_scales_with_work(
        map_secs in 2u64..20,
        stripes in 2usize..10,
        seed in any::<u64>(),
    ) {
        // Runtime grows when work grows, all else equal.
        let run = |secs: u64, stripes: usize| {
            let topo = Topology::homogeneous(2, 2, 2, 1);
            Engine::builder(topo)
                .code(CodeParams::new(4, 2).unwrap(), stripes * 2)
                .placement(&RackAwarePlacement)
                .seed(seed)
                .job(
                    JobSpec::builder("w")
                        .map_time(SimDuration::from_secs(secs), SimDuration::ZERO)
                        .map_only()
                        .build(),
                )
                .build()
                .unwrap()
                .run(Box::new(Greedy))
                .unwrap()
                .jobs[0]
                .runtime()
        };
        // Heartbeat phase can shift launch/completion edges by up to one
        // period, so compare with that slack.
        let slack = SimDuration::from_secs(3);
        let base = run(map_secs, stripes);
        let more_work = run(map_secs * 2, stripes);
        prop_assert!(more_work + slack >= base, "doubling task time shortened the job");
        let more_blocks = run(map_secs, stripes * 2);
        prop_assert!(more_blocks + slack >= base, "doubling blocks shortened the job");
    }
}
