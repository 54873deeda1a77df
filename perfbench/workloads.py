"""Workload definitions of the campaign benchmark, with the reason each
exists and the layer -> end-to-end map that later performance claims cite.

Every workload is a fixed batch of campaign cells that one
`CampaignRunner::run` executes on its work-stealing pool as a closed loop
(a pool worker takes the next cell only when its previous one finished).
All load comes from one process: at most min(4, nproc) threads are busy at
a time, counting pool workers and engine shard threads.

The spec's `seeds` axis is derived from the benchmark's --seed argument
and is the only thing the seed changes; the program receives only the
generated spec file.
"""

import os

MAX_THREADS = 4


def thread_cap():
    return max(1, min(MAX_THREADS, os.cpu_count() or 1))


def _grid_small(seed, tiny):
    return {
        "name": "grid_small",
        "topologies": [
            {"kind": "stack_kautz", "s": 4, "d": 3, "k": 2},
            {"kind": "pops", "t": 6, "g": 12},
            {"kind": "stack_imase_itoh", "s": 4, "d": 2, "n": 12},
        ],
        "arbitrations": ["token", "random", "aloha"],
        "traffic": "uniform",
        "loads": [0.1, 0.3, 0.5, 0.7, 0.9],
        "wavelengths": [1, 2],
        "seeds": [seed],
        "warmup_slots": 20 if tiny else 200,
        "measure_slots": 200 if tiny else 20000,
        "engine": "phased",
    }


def _sk10_sharded(seed, tiny):
    return {
        "name": "sk10_sharded",
        "topologies": [{"kind": "stack_kautz", "s": 10, "d": 10, "k": 3}],
        "arbitrations": ["token"],
        "traffic": "uniform",
        "loads": [0.2],
        "wavelengths": [1],
        "routes": ["compressed"],
        # The skewed timing promotes its cell to async-sharded (grid.cpp),
        # so each seed is one phased-sharded and one PDES cell.
        "timings": ["none",
                    {"profile": "const", "tuning": 128, "propagation": 1024}],
        "seeds": [seed],
        "warmup_slots": 100,  # the pipeline fills; delivered fraction ~1
        "measure_slots": 40 if tiny else 500,
        "engine": "sharded",
        "engine_threads": max(1, thread_cap() - 1),
        # One checkpoint per cell, at slot 500: it measures serialization.
        # A second write renames over the first blob, which on ext4 forces
        # writeback and turns the metric into a disk benchmark.
        "checkpoint_every": 120 if tiny else 500,
    }


def _collectives_async(seed, tiny):
    return {
        "name": "collectives_async",
        "topologies": [
            {"kind": "pops", "t": 6, "g": 12},
            {"kind": "stack_kautz", "s": 4, "d": 3, "k": 2},
            {"kind": "stack_kautz", "s": 6, "d": 4, "k": 3},
        ],
        "arbitrations": ["token", "random"],
        "traffic": "uniform",
        # Background load; keep it <= 0.2 (at 0.3 bsp on SK(6,4,3) ran to
        # a 3.4e5-slot makespan and a 4.9 GiB peak RSS).
        "loads": [0.2],
        "wavelengths": [1],
        "timings": [
            {"profile": "const", "tuning": 512, "propagation": 128},
            {"profile": "level", "tuning": 256, "propagation": 64,
             "level_skew": 256},
        ],
        "workloads": [
            "gossip",
            {"kind": "bsp", "phases": 2 if tiny else 32},
            {"kind": "reduce", "arity": 2},
            "gather",
        ],
        "seeds": [seed] if tiny else [seed + i for i in range(4)],
        "warmup_slots": 0,
        "measure_slots": 1,
        "engine": "async",
    }


def _sk12_scale(seed, tiny):
    return {
        "name": "sk12_scale",
        "topologies": [{"kind": "stack_kautz", "s": 12, "d": 20, "k": 3}],
        "arbitrations": ["token"],
        "traffic": "uniform",
        "loads": [0.2],
        "wavelengths": [1],
        "routes": ["compressed"],
        "seeds": [seed],
        "warmup_slots": 20,
        "measure_slots": 10 if tiny else 100,
        "engine": "sharded",
        "engine_threads": max(1, thread_cap() - 1),
        "latency_stats": "auto",
    }


# name -> definition.
#   spec(seed, tiny)   the campaign spec (tiny: the self-check's length)
#   pool               CampaignOptions::threads and the setup pool size
#   setup_reps         set-up repetitions per run, at least (repeated for
#                      at least 1 s; the median is reported)
#   min_reps           campaign repetitions per run, at least
#   min_delivered_fraction  per-row floor on open-loop token/random cells
#                      at or below `low_load`
#   phase_cell         index of the representative cell for the
#                      generate/arbitrate/receive split, and its length
#   why                one line: what the workload loads and why it exists
WORKLOADS = {
    "grid_small": {
        "spec": _grid_small,
        "pool": thread_cap,
        "setup_reps": 9,
        "min_reps": 3,
        "low_load": 0.1,
        "min_delivered_fraction": 0.99,
        "phase_cell": (4, 20000),  # SK(4,3,2) token load 0.5 W=1
        "why": "many short cache-resident cells: campaign pool, per-cell "
               "construction, serial slot loop and deep saturated VOQs; "
               "route compile ~0, no barriers, no checkpoints",
    },
    "sk10_sharded": {
        "spec": _sk10_sharded,
        "pool": lambda: 1,
        "setup_reps": 3,
        "min_reps": 3,
        "low_load": 1.0,
        "min_delivered_fraction": 0.99,
        "phase_cell": (0, 200),
        "why": "few long N=11000 cells missing L2: sharded slot loop, "
               "barrier wait, PDES windows and mailboxes, checkpoint "
               "serialization; campaign layer idle",
    },
    "collectives_async": {
        "spec": _collectives_async,
        "pool": thread_cap,
        "setup_reps": 9,
        "min_reps": 3,
        "low_load": 0.0,
        "min_delivered_fraction": 0.0,
        "phase_cell": (0, 5000),
        "why": "closed-loop collectives on the serial async engine: "
               "delivery-fed injection through the calendar queue with "
               "sub-slot timing, result is a makespan",
    },
    "sk12_scale": {
        "spec": _sk12_scale,
        # The runner compiles routes on its pool; one worker takes ~4x as
        # long. The one cell then runs its shards while the pool idles.
        "pool": thread_cap,
        "setup_reps": 3,
        "min_reps": 4,
        "low_load": 1.0,
        "min_delivered_fraction": 0.99,
        "phase_cell": (0, 20),
        "why": "one short N=100800 sharded cell: the only workload where "
               "route compile (~60% of the run) and memory at 1e5 nodes "
               "are measured",
    },
}


# Per-layer metrics of the traced run (--trace 1): name -> (unit, better,
# what it measures, end-to-end metric it should move, workloads it
# mostly moves on, workloads where it is predicted ~unchanged). Layers
# are the src/ modules; every number is taken from outside the program.
LAYER_MAP = {
    "routing.compile_s": ("s", "lower",
        "mean wall time of one CompiledTopology::build",
        "setup_s, campaign_s", "sk12_scale", "grid_small, collectives_async"),
    "routing.table_mib": ("MiB", "lower",
        "memory_bytes() of every compiled table",
        "peak_rss_mib", "sk12_scale", "grid_small, collectives_async"),
    "campaign.cell_s_p50": ("s", "lower",
        "median cell wall time (cell spans; sharded runtime rows on "
        "sk10_sharded)", "campaign_s", "grid_small, collectives_async",
        "sk10_sharded"),
    "campaign.cell_s_p90": ("s", "lower",
        "90th percentile cell wall time, same source",
        "campaign_s", "grid_small, collectives_async", "sk10_sharded"),
    "campaign.pool_busy_frac": ("frac", "higher",
        "pool busy / (busy + idle + steal) from the workers rows",
        "campaign_s", "grid_small, collectives_async", "sk10_sharded"),
    "campaign.pool_idle_s": ("s", "lower",
        "summed pool-worker idle time from the workers rows",
        "campaign_s", "grid_small, collectives_async", "sk10_sharded"),
    "campaign.pool_steals": ("count", "lower",
        "items stolen between pool workers",
        "campaign_s", "grid_small, collectives_async", "sk10_sharded"),
    "campaign.sink_s": ("s", "lower",
        "time inside JsonlSink/CsvSink behind a timing wrapper",
        "campaign_s", "grid_small, collectives_async", "sk10_sharded"),
    "sim.generate_s": ("s", "lower",
        "PhaseBreakdown generate phase, one representative serial cell",
        "ns_per_delivered", "grid_small", "collectives_async"),
    "sim.arbitrate_s": ("s", "lower",
        "PhaseBreakdown arbitrate phase, same cell",
        "ns_per_delivered", "grid_small", "collectives_async"),
    "sim.receive_s": ("s", "lower",
        "PhaseBreakdown receive phase, same cell",
        "ns_per_delivered", "grid_small", "collectives_async"),
    "sim.ns_per_hop": ("ns", "lower",
        "sim.run span time (sharded: runtime wall) / coupler_transmissions",
        "ns_per_delivered", "grid_small, sk10_sharded", "n/a"),
    "sim.hops_per_delivered": ("hop/packet", "lower",
        "coupler_transmissions / delivered",
        "ns_per_delivered", "grid_small, sk10_sharded", "n/a"),
    "sim.collision_frac": ("frac", "lower",
        "collisions / (collisions + coupler_transmissions)",
        "ns_per_delivered", "grid_small", "n/a"),
    "sim.latency_samples_mib": ("MiB", "lower",
        "full-mode delivered x 8 B, summed over the pool-size largest cells",
        "peak_rss_mib", "grid_small", "sk12_scale"),
    "sim.barrier_wait_frac": ("frac", "lower",
        "sum barrier_wait / sum shard time from the shard rows",
        "campaign_s", "sk10_sharded, sk12_scale",
        "grid_small, collectives_async"),
    "sim.shard_work_imbalance": ("ratio", "lower",
        "max / mean shard work_ns per cell, averaged over sharded cells",
        "campaign_s", "sk10_sharded, sk12_scale",
        "grid_small, collectives_async"),
    "sim.lookahead_use": ("frac", "higher",
        "lookahead_used / lookahead_available over the shard rows",
        "campaign_s", "sk10_sharded", "grid_small"),
    "sim.mailbox_msgs": ("count", "lower",
        "cross-shard mailbox messages sent",
        "campaign_s", "sk10_sharded", "grid_small"),
    "sim.calendar_peak": ("count", "lower",
        "largest pending-calendar depth seen by a shard",
        "campaign_s", "sk10_sharded", "grid_small"),
    "sim.checkpoint_s": ("s", "lower",
        "campaign_s minus campaign_s of the same spec with "
        "checkpoint_every 0 (medians)",
        "campaign_s", "sk10_sharded", "all others"),
    "sim.checkpoint_mib": ("MiB", "lower",
        "checkpoint blob bytes left by a checkpoint_stop drill",
        "campaign_s", "sk10_sharded", "all others"),
    "workload.build_s": ("s", "lower",
        "time building every cell's packet source (workload/ factories; "
        "the open-loop traffic generator for open-loop cells)",
        "campaign_s, ns_per_delivered", "collectives_async",
        "grid_small, sk10_sharded"),
    "workload.packets": ("count", "lower",
        "closed-loop packets built, summed over the cells",
        "campaign_s, ns_per_delivered", "collectives_async",
        "grid_small, sk10_sharded"),
    "workload.makespan_slots_p50": ("slots", "lower",
        "median simulated makespan of the closed-loop cells",
        "campaign_s, ns_per_delivered", "collectives_async",
        "grid_small, sk10_sharded"),
    "obs.trace_overhead_frac": ("frac", "lower",
        "traced campaign_s / untraced campaign_s - 1 (medians)",
        "none (overhead check)", "all", "n/a"),
}
