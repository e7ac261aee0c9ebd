"""The searches on the benchmark's seed-1 city, pinned bit for bit."""

from __future__ import annotations

import hashlib
import importlib.util
import pathlib
import sys

from spotar.heuristic import HeuristicKind
from spotar.network import Query, load_network
from spotar.solver import solve
from spotar.weights import CostModel, Mode, build_store, load_trajectories

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _gen_module():
    """The benchmark's ``citybench/gen.py``, imported from its file.  Its
    dataclasses look their module up in ``sys.modules`` while it runs."""
    spec = importlib.util.spec_from_file_location("citybench_gen", ROOT / "citybench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    return gen


def test_city_searches_are_pinned(tmp_path):
    """Answers, search effort and events on the seed-1 city, pinned bit for bit.

    The city, its trajectory log and its candidate queries come from the
    benchmark's generator; the stores are built as the benchmark builds
    them (``min_support=10``, ``max_unit_len=4``).  The first 200
    candidate queries are solved with both bounds, in ``pace`` and
    ``edge`` mode on the pace store and in ``edge`` mode on the edge
    store.  The first digest covers every answer (path,
    ``probability.hex()``, expansions, explored edges and their ids), the
    second every event with its float value as ``float.hex``, so a change
    to the search that the small stores of ``test_solver.py`` do not
    reach still moves them.  A change to ``citybench/gen.py`` changes the
    city and so moves them too; they are then taken again.
    """
    gen = _gen_module()
    gen.generate("city-pace", 1, str(tmp_path))
    net = load_network(str(tmp_path / "network.csv"))
    records = load_trajectories(net, str(tmp_path / "trajectories.txt"))
    stores = {mode: build_store(net, records, min_support=10, mode=mode, max_unit_len=4) for mode in Mode}
    lines = (tmp_path / "queries.txt").read_text(encoding="utf-8").splitlines()[:200]
    queries = [Query(s, d, int(b)) for s, d, b, *_ in (line.split(",") for line in lines)]
    digest = hashlib.sha256()
    event_digest = hashlib.sha256()
    expanded = explored = 0
    for store_mode, mode in ((Mode.PACE, Mode.PACE), (Mode.PACE, Mode.EDGE), (Mode.EDGE, Mode.EDGE)):
        model = CostModel(stores[store_mode], mode)
        for query in queries:
            for kind in (HeuristicKind.SP, HeuristicKind.BA):
                res = solve(net, model, kind, query)
                path = res.path.edges if res.path else None
                row = (path, res.probability.hex(), res.expanded_labels, res.explored_edges,
                       sorted(res.explored_edge_ids))
                digest.update(repr(row).encode())
                for event in res.events:
                    event_digest.update(repr(tuple(f.hex() if type(f) is float else f for f in event)).encode())
                expanded += res.expanded_labels
                explored += res.explored_edges
    assert (expanded, explored) == (8569, 13455)
    assert digest.hexdigest() == "ad0b0a326927430c72b0962d0bddcd9dc95f3a3bc346954db775a3e220b91a5e"
    assert event_digest.hexdigest() == "8248f2ff1e0b5aba6ded07bbd4d6f29d9fd9cf7b463de429f890b339c5580a94"
