"""Predicate checkers for the numbered claims of the intersection theory.

The registry ``TRIPLE_CLAIMS`` is the claim layer: each triple claim is
one pure predicate over the graph order, the longest-path length and a
``TripleAnalysis``, and each bound is written once, inside its predicate.
``check_triple`` and ``check_prop1`` take a concrete graph plus paths and
return a structured verdict. No bound uses floating point: each is checked
in cross-multiplied integer form so boundary cases cannot be masked by
rounding.

Claim registry (ids are the stable wire vocabulary of reports):

* ``prop1``        two longest paths always share a vertex
* ``conj_Z``       three longest paths share a vertex (min distance sum 0)
* ``lemma21``      order bound 2n >= 3l + sum of exclusive counts + 3 when
                   the triple has no common vertex
* ``lemma22``      per-path exclusive count >= crossings * (f - 1)
* ``lemma23``      a path with exactly one crossing forces f = 0
* ``thm1``         13 f <= n + 6
* ``case1_bound``  26 f <= 2n + 9 when the minimum crossing count is 2
* ``case2_bound``  27 f <= 2n + 12 when the minimum crossing count is >= 3
* ``conj4``        a path with exactly two crossings forces f = 0
* ``subdivision_prop`` / ``size_bound``  see the subdivision module

Violations of proven statements can only come from implementation bugs and
are classified separately from conjecture violations.
"""

from __future__ import annotations

from typing import Any

from .graphs import Graph, graph_key, is_connected, iter_bits
from .paths import DEFAULT_PATH_CAP, LongestPathTable, Path
from .record import FrozenRecord
from .triples import PathTriple, TripleAnalysis, analyze_triple

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"
SKIPPED_TRUNCATED = "skipped_truncated"
SKIPPED_BUDGET = "skipped_budget"

PROVEN_CLAIMS = frozenset(
    {
        "prop1",
        "lemma21",
        "lemma22",
        "lemma23",
        "thm1",
        "case1_bound",
        "case2_bound",
        "subdivision_prop",
        "size_bound",
    }
)
CONJECTURE_CLAIMS = frozenset({"conj_Z", "conj4"})


class TruncatedEnumerationError(RuntimeError):
    """Raised when an operation needs the complete longest-path set but the
    enumeration was capped."""


class ClaimVerdict(FrozenRecord):
    """Outcome of one claim check.

    A ``violated`` verdict always carries a witness complete enough to
    replay the violation from scratch.
    """

    def __init__(self, claim: str, status: str, witness: dict[str, Any] | None = None):
        self.__dict__.update(claim=claim, status=status, witness=witness)


# ---------------------------------------------------------------------------
# gates shared by the checkers
# ---------------------------------------------------------------------------

def _gate_longest(
    claim: str,
    graph: Graph,
    paths,
    longest_paths: LongestPathTable | None,
) -> tuple[LongestPathTable, ClaimVerdict | None]:
    # The gate reads only the length and the flag: no path is listed.
    lp = LongestPathTable(graph, DEFAULT_PATH_CAP) if longest_paths is None else longest_paths
    if lp.truncated:
        return lp, ClaimVerdict(
            claim,
            SKIPPED_TRUNCATED,
            {"reason": "longest-path enumeration was truncated"},
        )
    for p in paths:
        if p.length != lp.length:
            raise ValueError(
                f"path {list(p.vertices)} has length {p.length}, "
                f"not the longest-path length {lp.length}"
            )
    return lp, None


def _replay_witness(graph: Graph, triple: PathTriple, ana: TripleAnalysis) -> dict:
    return {
        "graph": graph_key(graph),
        "paths": [list(p.vertices) for p in triple.paths],
        "f": ana.f,
        "witnesses": sorted(ana.witnesses),
        "x_sizes": list(ana.x_sizes),
        "t_counts": list(ana.t_counts),
        "strict_crossings": ana.strict_crossings,
    }


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_prop1(
    graph: Graph,
    p1: Path,
    p2: Path,
    *,
    longest_paths: LongestPathTable | None = None,
) -> ClaimVerdict:
    """Two distinct longest paths of a connected graph share a vertex.

    This is a proven statement: a violation indicates an implementation
    bug and callers must abort the surrounding scan with the witness.
    """
    if p1 == p2:
        raise ValueError("the two paths must be distinct")
    lp, short = _gate_longest("prop1", graph, (p1, p2), longest_paths)
    if short is not None:
        return short
    common = p1.mask & p2.mask
    if common:
        return ClaimVerdict("prop1", HOLDS, {"common": list(iter_bits(common))})
    return ClaimVerdict(
        "prop1",
        VIOLATED,
        {
            "graph": graph_key(graph),
            "paths": [list(p1.vertices), list(p2.vertices)],
        },
    )


# Each triple predicate maps (n, l, analysis) to (claim id, status, info).
# A violated verdict's witness is the full replay witness plus ``info``.

def _conj_z(n: int, l: int, a: TripleAnalysis):
    """Three longest paths share a vertex, i.e. the minimum distance sum
    over all vertices is zero."""
    if a.f == 0:
        return "conj_Z", HOLDS, {"common": sorted(a.witnesses)}
    return "conj_Z", VIOLATED, {}


def _lemma21(n: int, l: int, a: TripleAnalysis):
    """When the triple has no common vertex, the graph order satisfies
    2n >= 3l + sum of exclusive-vertex counts + 3. Vacuous at f = 0."""
    if a.f == 0:
        return "lemma21", VACUOUS, {"f": 0}
    ok = 2 * n >= 3 * l + sum(a.x_sizes) + 3
    return "lemma21", HOLDS if ok else VIOLATED, {"n": n, "l": l, "x_sizes": list(a.x_sizes)}


def _lemma22(n: int, l: int, a: TripleAnalysis):
    """Each path's exclusive-vertex count is at least its crossing count
    times (f - 1). Never vacuous: the right side is <= 0 whenever f <= 1."""
    ok = all(x >= t * (a.f - 1) for x, t in zip(a.x_sizes, a.t_counts))
    info = {"f": a.f, "x_sizes": list(a.x_sizes), "t_counts": list(a.t_counts)}
    return "lemma22", HOLDS if ok else VIOLATED, info


def _forces_zero(claim: str, crossings: int):
    """A path crossed exactly ``crossings`` times by the other two forces
    f = 0; vacuous when no path of the triple has that crossing count."""

    def predicate(n: int, l: int, a: TripleAnalysis):
        info = {"t_counts": list(a.t_counts)}
        if crossings not in a.t_counts:
            return claim, VACUOUS, info
        return claim, HOLDS if a.f == 0 else VIOLATED, info

    return predicate


def _thm1(n: int, l: int, a: TripleAnalysis):
    """The linear bound 13 f <= n + 6."""
    return "thm1", HOLDS if 13 * a.f <= n + 6 else VIOLATED, {"n": n, "f": a.f}


def _case_bounds(n: int, l: int, a: TripleAnalysis):
    """The sharper bounds classified by the minimum crossing count t_min.

    t_min = 2 checks 26 f <= 2n + 9 (claim ``case1_bound``); t_min >= 3
    checks 27 f <= 2n + 12 (claim ``case2_bound``); t_min <= 1 is vacuous
    here because the single-crossing claim already forces f = 0. Both
    branches also probe the proof-internal length bound l >= 6 f - 2 and
    fold its outcome into the witness.
    """
    t_min = min(a.t_counts)
    if t_min <= 1:
        return "case1_bound", VACUOUS, {"t_min": t_min, "deferred_to": "lemma23"}
    if t_min == 2:
        claim, ok = "case1_bound", 26 * a.f <= 2 * n + 9
    else:
        claim, ok = "case2_bound", 27 * a.f <= 2 * n + 12
    internal_ok = l >= 6 * a.f - 2
    info = {
        "n": n,
        "f": a.f,
        "t_min": t_min,
        "proof_internal_length_bound": {
            "inequality": "l >= 6*f - 2",
            "l": l,
            "holds": internal_ok,
        },
    }
    return claim, HOLDS if ok and internal_ok else VIOLATED, info


# The triple claims, keyed by check name (``case_bounds`` reports under the
# claim id of the case it falls into).
TRIPLE_CLAIMS = {
    "conj_Z": _conj_z,
    "lemma21": _lemma21,
    "lemma22": _lemma22,
    "lemma23": _forces_zero("lemma23", 1),
    "thm1": _thm1,
    "case_bounds": _case_bounds,
    "conj4": _forces_zero("conj4", 2),
}


def triple_verdict(
    name: str, graph: Graph, triple: PathTriple, l: int, analysis: TripleAnalysis
) -> ClaimVerdict:
    """Evaluate the registered claim ``name`` on a triple of longest paths
    of length ``l``, trusting the caller to have gated the path set."""
    claim, status, info = TRIPLE_CLAIMS[name](graph.n, l, analysis)
    if status == VIOLATED:
        info = {**_replay_witness(graph, triple, analysis), **info}
    return ClaimVerdict(claim, status, info)


def check_triple(
    name: str,
    graph: Graph,
    triple: PathTriple,
    *,
    longest_paths: LongestPathTable | None = None,
    analysis: TripleAnalysis | None = None,
) -> ClaimVerdict:
    """Check one registered triple claim on caller-supplied paths.

    The paths must all be longest; a truncated enumeration gives
    ``skipped_truncated``. ``analysis`` defaults to a fresh
    ``analyze_triple``.
    """
    if name not in TRIPLE_CLAIMS:
        raise ValueError(f"unknown triple claim {name!r}; pick from {sorted(TRIPLE_CLAIMS)}")
    lp, short = _gate_longest(name, graph, triple.paths, longest_paths)
    if short is not None:
        return short
    if analysis is None:
        analysis = analyze_triple(graph, triple)
    return triple_verdict(name, graph, triple, lp.length, analysis)


# ---------------------------------------------------------------------------
# whole-graph operations
# ---------------------------------------------------------------------------

def gallai_vertex_set(
    graph: Graph, *, longest_paths: LongestPathTable | None = None
) -> frozenset[int]:
    """Vertices lying on every longest path; may be empty.

    The answer is the ``core`` of the longest-path table, which intersects
    the paths without listing them. Without ``longest_paths`` an uncapped
    table is filled, exact however many paths there are. Given a truncated
    table it refuses to answer, since a missing path could shrink the
    intersection.
    """
    if not is_connected(graph):
        raise ValueError("the longest-path intersection is defined for connected graphs")
    table = LongestPathTable(graph) if longest_paths is None else longest_paths
    if table.truncated:
        raise TruncatedEnumerationError(
            "longest-path enumeration was truncated; intersection unknown"
        )
    return frozenset(iter_bits(table.core))
