"""Fixed, seed-independent inputs that reproduce three known faults.

Each is a tiny network and trajectory log; the benchmark writes them into
its work directory and runs them in every round next to the seeded
queries, so each fault fails the same share of operations in every run.

``priority`` (pace mode): a label's queue priority
``cdf(budget - node_min)`` is not an upper bound on its extensions.  Edge
``x1`` alone is slow half the time, but every trip that went on along
``x2`` took ``x1`` fast, so the stored joint of ``x1,x2`` makes the whole
path certain.  With the tree bound the ``x1`` label's priority is 0.5;
the direct edge ``y1`` (0.7) becomes the incumbent and purges it, so
``sp`` answers 0.7.  The looser straight-line bound gives that label 0.8,
so ``ba`` keeps it and finds ``x1,x2`` at 1.0, which is the optimum.

``dominance`` (pace mode): the solver drops a label whose total-time
histogram another label at the same node dominates, but in pace mode an
extension's cost depends on the label's last edges.  Label ``e1,e2``
(total 2) dominates ``e3,e4`` (total 3) at ``v`` and removes it; the
``e2,e5`` joint then forces ``e5`` to 10, so both bounds answer no path,
while ``e3,e4,e5`` arrives in 4 for certain.

``inconsistent`` (pace mode): the stored joints of ``z1,z2`` and
``z2,z3`` disagree on every time of ``z2``.  Extending ``z1,z2`` by
``z3`` raises ``InconsistentWeightsError`` out of ``solve``, so the whole
query aborts and ``spotar query`` exits 1 instead of answering.
"""

from __future__ import annotations

import os

PRIORITY = {
    "network": """#nodes
s,57.0000000,9.9000000
v,57.0000000,9.9005000
d,57.0000000,9.9005800
#edges
x1,s,v,40.0,10.0
x2,v,d,6.0,10.0
y1,s,d,40.0,10.0
""",
    "trajectories": """10,x1:1;x2:1
6,x1:5
4,x1:10
7,y1:3
3,y1:8
""",
    "query": ("s", "d", 5),
    "fault": "pace-priority",
}

DOMINANCE = {
    "network": """#nodes
s,57.0000000,9.9000000
a,57.0000500,9.9001000
b,56.9999500,9.9001000
v,57.0000000,9.9002000
d,57.0000000,9.9003000
#edges
e1,s,a,10.0,10.0
e2,a,v,10.0,10.0
e3,s,b,10.0,10.0
e4,b,v,10.0,10.0
e5,v,d,10.0,10.0
""",
    "trajectories": """10,e1:1;e2:1;e5:10
10,e3:1;e4:2;e5:1
""",
    "query": ("s", "d", 5),
    "fault": "pace-dominance",
}

INCONSISTENT = {
    "network": """#nodes
a,57.0000000,9.9000000
b,57.0000000,9.9010000
c,57.0000000,9.9020000
d,57.0000000,9.9030000
#edges
z1,a,b,70.0,10.0
z2,b,c,70.0,10.0
z3,c,d,70.0,10.0
""",
    "trajectories": """10,z1:5;z2:5
10,z2:9;z3:5
""",
    "query": ("a", "d", 100),
    "fault": "inconsistent-weights",
}


def write(case: dict, out_dir: str) -> tuple[str, str]:
    """Write a case's network and log; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    net = os.path.join(out_dir, "network.csv")
    log = os.path.join(out_dir, "trajectories.txt")
    with open(net, "w", encoding="utf-8") as fh:
        fh.write(case["network"])
    with open(log, "w", encoding="utf-8") as fh:
        fh.write(case["trajectories"])
    return net, log
