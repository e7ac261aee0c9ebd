"""Directed road network with coordinates, lengths, and speed limits.

Networks are immutable once loaded.  The time resolution ``delta``
(seconds per time unit) is fixed at load time and shared by every
distribution derived from the network, so resolutions can never be
mixed downstream.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import attrgetter

from .dist import DistributionError, _check_delta

EARTH_RADIUS_M = 6_371_000.0


class NetworkFormatError(ValueError):
    """Raised when a network file fails to parse or validate."""


class PathError(ValueError):
    """Raised when an edge sequence does not form a valid simple path."""


# A network loads thousands of rows, and the search reads their fields on
# every extension; slots keep those reads fast.  A frozen dataclass's own
# ``__init__`` looks up ``object.__setattr__`` again for every field it
# sets, so the rows' ``__init__`` sets them through this one binding.
_set_field = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Node:
    node_id: str
    lat: float
    lon: float

    def __init__(self, node_id: str, lat: float, lon: float) -> None:
        _set_field(self, "node_id", node_id)
        _set_field(self, "lat", lat)
        _set_field(self, "lon", lon)


@dataclass(frozen=True, slots=True, init=False)
class Edge:
    edge_id: str
    from_node: str
    to_node: str
    length: float  # meters
    speed_limit: float  # meters per second

    def __init__(self, edge_id: str, from_node: str, to_node: str, length: float, speed_limit: float) -> None:
        _set_field(self, "edge_id", edge_id)
        _set_field(self, "from_node", from_node)
        _set_field(self, "to_node", to_node)
        _set_field(self, "length", length)
        _set_field(self, "speed_limit", speed_limit)


@dataclass(frozen=True)
class Path:
    """A sequence of distinct, consecutively adjacent edge ids.

    Construct through :func:`make_path` so adjacency is checked against
    a network; equality and hashing are by edge sequence.
    """

    edges: tuple[str, ...]


@dataclass(frozen=True)
class Query:
    """A routing question: maximize the chance of making it in time.

    ``budget`` is in time units (multiples of the network's delta).
    """

    source: str
    dest: str
    budget: int

    def __post_init__(self) -> None:
        if self.source == self.dest:
            raise ValueError("source and destination must differ")
        if not isinstance(self.budget, int) or isinstance(self.budget, bool) or self.budget < 1:
            raise ValueError(f"budget must be a positive integer, got {self.budget!r}")


class Network:
    """Immutable directed multigraph over geographic nodes."""

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge], delta: float = 1.0) -> None:
        node_map: dict[str, Node] = {}
        for n in nodes:
            if n.node_id in node_map:
                raise NetworkFormatError(f"duplicate node id {n.node_id!r}")
            if not (math.isfinite(n.lat) and math.isfinite(n.lon)):
                raise NetworkFormatError(f"node {n.node_id!r} has a coordinate that is not finite")
            node_map[n.node_id] = n
        edge_map: dict[str, Edge] = {}
        for e in edges:
            if e.edge_id in edge_map:
                raise NetworkFormatError(f"duplicate edge id {e.edge_id!r}")
            if e.from_node not in node_map or e.to_node not in node_map:
                raise NetworkFormatError(f"edge {e.edge_id!r} references an unknown node")
            if not 0.0 < e.length < math.inf:
                raise NetworkFormatError(
                    f"edge {e.edge_id!r} has length {e.length!r}, not a positive finite number"
                )
            if not 0.0 < e.speed_limit < math.inf:
                raise NetworkFormatError(
                    f"edge {e.edge_id!r} has speed limit {e.speed_limit!r}, not a positive finite number"
                )
            edge_map[e.edge_id] = e
        try:
            self.delta = _check_delta(delta)
        except DistributionError as exc:
            raise NetworkFormatError(str(exc)) from None
        self._nodes = node_map
        self._edges = edge_map
        out: dict[str, list[Edge]] = {nid: [] for nid in node_map}
        incoming: dict[str, list[Edge]] = {nid: [] for nid in node_map}
        for e in edge_map.values():
            out[e.from_node].append(e)
            incoming[e.to_node].append(e)
        by_id = attrgetter("edge_id")
        self._out = {nid: tuple(sorted(es, key=by_id)) for nid, es in out.items()}
        self._in = {nid: tuple(sorted(es, key=by_id)) for nid, es in incoming.items()}
        mean_lat = sum(n.lat for n in node_map.values()) / len(node_map) if node_map else 0.0
        self._cos_lat = math.cos(math.radians(mean_lat))

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(self._edges)

    def node(self, node_id: str) -> Node:
        return self._nodes[node_id]

    def edge(self, edge_id: str) -> Edge:
        return self._edges[edge_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._edges

    def out_edges(self, node_id: str) -> tuple[Edge, ...]:
        """Outgoing edges of a node, ordered by edge id."""
        return self._out[node_id]

    def num_nodes(self) -> int:
        return len(self._nodes)

    def num_edges(self) -> int:
        return len(self._edges)

    def distance_m(self, a: str, b: str) -> float:
        """Straight-line distance between two nodes in meters.

        Equirectangular approximation: longitudes are scaled by one
        cosine, of the network's mean node latitude, fixed at load, which
        is plenty for city extents.  One fixed scale for every pair makes
        this a planar metric, so it obeys the triangle inequality that
        the straight-line bound relies on.
        """
        na, nb = self._nodes[a], self._nodes[b]
        dlat = math.radians(nb.lat - na.lat)
        dlon = math.radians(nb.lon - na.lon) * self._cos_lat
        return EARTH_RADIUS_M * math.hypot(dlat, dlon)

    def __repr__(self) -> str:
        return f"Network({self.num_nodes()} nodes, {self.num_edges()} edges, delta={self.delta})"


def make_path(net: Network, edge_ids: Sequence[str]) -> Path:
    """Validate an edge sequence against a network and wrap it as a Path.

    Requires at least one edge, no repeated edge, and each edge to start
    where the previous one ends.
    """
    ids = tuple(edge_ids)
    if not ids:
        raise PathError("a path needs at least one edge")
    if len(set(ids)) != len(ids):
        raise PathError(f"repeated edge in {ids!r}")
    prev: Edge | None = None
    for eid in ids:
        if not net.has_edge(eid):
            raise PathError(f"unknown edge {eid!r}")
        e = net.edge(eid)
        if prev is not None and prev.to_node != e.from_node:
            raise PathError(
                f"edge {eid!r} starts at {e.from_node!r} but {prev.edge_id!r} ends at {prev.to_node!r}"
            )
        prev = e
    return Path(ids)


def load_network(path: str, delta: float = 1.0) -> Network:
    """Read a network from its two-section CSV text format.

    The file holds a ``#nodes`` section (``node_id,lat,lon`` lines) and
    an ``#edges`` section (``edge_id,from,to,length_m,speed_mps``).
    Blank lines are ignored.  An error names the file and, when one line
    is at fault, its 1-based number.
    """
    nodes: list[Node] = []
    edges: list[Edge] = []
    section: str | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                name = line[1:].strip().lower()
                if name not in ("nodes", "edges"):
                    raise NetworkFormatError(f"{path}: line {lineno}: unknown section {line!r}")
                section = name
                continue
            fields = [f.strip() for f in line.split(",")]
            try:
                if section == "nodes":
                    if len(fields) != 3:
                        raise ValueError("expected node_id,lat,lon")
                    nodes.append(Node(fields[0], float(fields[1]), float(fields[2])))
                elif section == "edges":
                    if len(fields) != 5:
                        raise ValueError("expected edge_id,from,to,length_m,speed_mps")
                    edges.append(
                        Edge(fields[0], fields[1], fields[2], float(fields[3]), float(fields[4]))
                    )
                else:
                    raise ValueError("data before any section header")
            except ValueError as exc:
                raise NetworkFormatError(f"{path}: line {lineno}: {exc}") from None
    if not nodes:
        raise NetworkFormatError(f"{path}: no #nodes section or no nodes")
    try:
        return Network(nodes, edges, delta)
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from None

