"""The benchmark's workloads, written as ``polydist`` command lines.

Each workload is a list of argument vectors.  Their task lists are built by
the CLI's own task builders, so every task is a ``(runner-name, kwargs)``
pair from ``cli._RUNNERS`` and the benchmark keeps no second list of
engines.  ``{seed}`` in an argument vector is replaced by the polydist seed
of the pass.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1
HELD_OUT_SEED = 20171109  # never used while tuning; claims must hold on it too

WORKLOADS = {
    # 1,092 / 5,460 / 19,530 generators; (2,2,til,6) has the same source
    # ring as the ROADMAP's (1,4,til,6) but runs faster.
    "formal": [
        ["verify", "formal-distribution", "--r", str(r), "--n", str(n),
         "--flavor", flavor, "--degree", str(degree)]
        for r, n, flavor, degree in [
            (1, 2, "til", 6),
            (1, 3, "til", 6),
            (1, 2, "std", 5),
            (1, 3, "std", 5),
            (2, 2, "til", 6),
        ]
    ],
    # One step above the ``verify --all`` defaults, on the same code paths.
    "lie": [
        ["verify", "bch-closed-form", "--degree", "7", "--candidate", "both"],
        ["verify", "conversions", "--depth", "8"],
        ["verify", "inhomogeneous", "--n", "2", "--depth", "7"],
        ["verify", "inhomogeneous", "--n", "3", "--depth", "7"],
        ["verify", "homogeneous", "--n", "2", "--depth", "8"],
        ["verify", "homogeneous", "--n", "3", "--depth", "8"],
        ["verify", "eisenstein-specialization", "--k-max", "6"],
    ],
    # The task lists of ``numeric --all`` and ``measures --all``: 59 reports.
    "numeric": [
        ["numeric", "--all", "--seed", "{seed}"],
        ["measures", "--all", "--seed", "{seed}"],
    ],
}


def seeded(workload):
    """Whether the workload's tasks take a polydist seed."""
    return any("{seed}" in argv for argv in WORKLOADS[workload])


def argvs(workload, pseed):
    return [
        [a.replace("{seed}", str(pseed)) for a in argv]
        for argv in WORKLOADS[workload]
    ]


def build_tasks(argv_list):
    """(runner-name, kwargs) tasks for a list of polydist argument vectors,
    built the way ``polydist.cli.main`` builds them."""
    from polydist import cli

    parser = cli.build_parser()
    builders = {
        "verify": cli._verify_tasks,
        "measures": cli._measure_tasks,
        "numeric": cli._numeric_tasks,
    }
    tasks = []
    for argv in argv_list:
        args = parser.parse_args(argv)
        tasks.extend(builders[args.command](args))
    return tasks


def pass_seeds(seed):
    """An endless stream of per-pass seeds drawn from the run's seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)
