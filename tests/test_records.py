"""The value classes' contracts: construction, equality, order, hashing,
pickling and field dicts, which reports and the worker pool rely on."""

import pickle
import random

import pytest

from conftest import complete_graph, cycle_graph, path_graph
from gallai.claims import HOLDS, VIOLATED, ClaimVerdict
from gallai.paths import Path, enumerate_longest_paths
from gallai.record import FrozenRecord, Record
from gallai.scan import (
    _CSV_COLUMNS,
    GraphRecord,
    ScanConfig,
    ScanReport,
    ViolationRecord,
    emit_report,
)
from gallai.subdivision import PendantExtension, SubdividedInstance, attach_pendants, subdivide
from gallai.triples import PathTriple, TripleAnalysis, analyze_triple

REPORT_FIELDS = ["graph6", "n", "m", "status", "l", "num_longest", "truncated", "gallai_size",
                 "triples_total", "triples_examined", "triples_skipped", "pairs_examined",
                 "max_f", "min_t", "tallies"]


def _triple():
    return PathTriple(tuple(enumerate_longest_paths(cycle_graph(5)).paths[:3]))


def _analysis():
    return analyze_triple(cycle_graph(5), _triple())


def _examples():
    """For each value class, a factory whose every call builds a new, equal
    instance, and the record base the class has."""
    ext = attach_pendants(cycle_graph(5), _triple())
    return [
        (lambda: Path((3, 1, 2)), FrozenRecord),
        (_triple, FrozenRecord),
        (_analysis, FrozenRecord),
        (lambda: ClaimVerdict("thm1", VIOLATED, {"f": 2}), FrozenRecord),
        (lambda: ScanConfig(generate_n=4, checks=("prop1",)), FrozenRecord),
        (lambda: PendantExtension(ext.graph, ext.paths, dict(ext.pendant_map)), FrozenRecord),
        (lambda: subdivide(ext.graph, 1, ext.paths), FrozenRecord),
        (lambda: GraphRecord("Bw", 3, 2, "vacuous", l=2, tallies={"prop1": {HOLDS: 1}}), Record),
        (lambda: ViolationRecord("Bw", "conj_Z", {"f": 1}), Record),
        (lambda: ScanReport([GraphRecord("@", 1, 0, "vacuous")], [], False, 0.5), Record),
    ]


class TestPath:
    def test_hash_is_that_of_the_vertex_tuple_in_a_tuple(self):
        # Set and dict orders of paths reach the reports.
        for vs in [(0,), (0, 1), (2, 0, 1), (4, 3, 2, 1, 0)]:
            p = Path(vs)
            assert hash(p) == hash((p.vertices,))
            assert p.vertices == min(vs, vs[::-1])

    def test_order_is_that_of_the_vertex_tuples(self):
        rng = random.Random(7)
        paths = [Path(tuple(rng.sample(range(9), rng.randint(1, 9)))) for _ in range(300)]
        assert [p.vertices for p in sorted(paths)] == sorted(p.vertices for p in paths)
        for a, b in zip(paths, paths[1:]):
            assert (a < b, a <= b, a > b, a >= b, a == b) == (
                a.vertices < b.vertices, a.vertices <= b.vertices, a.vertices > b.vertices,
                a.vertices >= b.vertices, a.vertices == b.vertices)

    def test_a_cached_mask_does_not_change_equality(self):
        walked = enumerate_longest_paths(path_graph(4)).paths[0]
        built = Path((3, 2, 1, 0))
        assert "mask" in vars(walked) and "mask" not in vars(built)
        assert walked == built and hash(walked) == hash(built)

    def test_other_types_do_not_compare(self):
        assert Path((0, 1)) != (0, 1)
        with pytest.raises(TypeError):
            Path((0, 1)) < (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            Path(())
        with pytest.raises(ValueError, match="distinct"):
            Path((0, 1, 0))


class TestValueClasses:
    @pytest.mark.parametrize("make, base", _examples())
    def test_equality_is_by_class_and_fields(self, make, base):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert isinstance(a, base)
        # Same fields, other class (even a subclass): not equal.
        other = object.__new__(type("Other", (type(a),), {}))
        other.__dict__.update(vars(a))
        assert a != other

    @pytest.mark.parametrize("make, base", _examples())
    def test_frozen_classes_refuse_assignment(self, make, base):
        value = make()
        name = next(iter(vars(value)))
        if base is FrozenRecord:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        else:
            setattr(value, name, None)
            assert getattr(value, name) is None
            with pytest.raises(TypeError):
                hash(value)

    def test_field_changes_break_equality(self):
        assert ClaimVerdict("thm1", HOLDS) != ClaimVerdict("thm1", VIOLATED)
        assert ClaimVerdict("thm1", HOLDS) == ClaimVerdict("thm1", HOLDS, None)
        a = _analysis()
        assert a != TripleAnalysis(a.f, a.witnesses, a.x_sizes, a.t_counts, a.pairwise_sizes,
                                   not a.strict_crossings)
        rec = GraphRecord("Bw", 3, 2, "checked")
        assert rec == GraphRecord("Bw", 3, 2, "checked", tallies={})
        rec.tallies["thm1"] = {HOLDS: 1}
        assert rec != GraphRecord("Bw", 3, 2, "checked")

    def test_hashable_frozen_records_hash_as_their_field_tuple(self):
        triple, verdict = _triple(), ClaimVerdict("lemma21", HOLDS)
        assert hash(triple) == hash((triple.paths,))
        assert hash(verdict) == hash(("lemma21", HOLDS, None))
        assert len({_triple(), triple}) == 1

    @pytest.mark.parametrize("value", [
        GraphRecord("Bw", 3, 2, "vacuous", l=2, num_longest=1, tallies={"prop1": {HOLDS: 1}}),
        ViolationRecord("Bw", "conj_Z", {"f": 1, "paths": [[0, 1]]}),
        ClaimVerdict("thm1", VIOLATED, {"f": 2}),
        Path((2, 1, 0)),
        enumerate_longest_paths(complete_graph(4)).paths[5],
        _triple(),
        _analysis(),
    ], ids=lambda v: type(v).__name__)
    def test_pickle_round_trip(self, value):
        # The --jobs N worker pool pickles records and verdicts.
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value) and vars(copy) == vars(value)

    def test_constructors_keep_their_signatures(self):
        assert vars(ClaimVerdict("c", HOLDS)) == {"claim": "c", "status": HOLDS, "witness": None}
        config = ScanConfig(generate_n=3)
        assert vars(config) == {
            "generate_n": 3, "input_path": None, "input_format": "graph6",
            "checks": config.checks, "triple_mode": "shortcut-first", "triple_cap": 100_000,
            "enumeration_cap": 100_000, "subdivision_t": (), "jobs": 1, "strict_t": False}
        a = _analysis()
        assert list(vars(a)) == ["f", "witnesses", "x_sizes", "t_counts", "pairwise_sizes",
                                 "strict_crossings"]
        assert TripleAnalysis(*list(vars(a).values())[:5]) == a
        assert list(vars(subdivide(cycle_graph(5), 1, ()))) == [
            "source", "source_paths", "t", "graph", "paths", "chains"]
        # A new record gets its own tallies dict.
        assert GraphRecord("@", 1, 0, "vacuous").tallies is not GraphRecord("@", 1, 0, "x").tallies

    def test_validation_still_runs(self):
        with pytest.raises(ValueError, match="exactly one of"):
            ScanConfig()
        with pytest.raises(ValueError, match="pairwise distinct"):
            PathTriple((Path((0, 1)), Path((1, 0)), Path((1, 2))))
        assert PathTriple((Path((1, 2)), Path((0, 1)), Path((0,)))).paths == (
            Path((0,)), Path((0, 1)), Path((1, 2)))
        with pytest.raises(AssertionError):
            SubdividedInstance(cycle_graph(3), (), 1, cycle_graph(3), (), {})


class TestReportFields:
    def test_a_graph_record_holds_exactly_the_report_fields(self):
        rec = GraphRecord("Bw", 3, 2, "vacuous")
        assert list(vars(rec)) == REPORT_FIELDS
        assert _CSV_COLUMNS == (*REPORT_FIELDS[:-1], "violations")

    def test_csv_header_and_row(self):
        rec = GraphRecord("Bw", 3, 2, "vacuous", l=2, num_longest=1)
        text = emit_report(ScanReport([rec], [ViolationRecord("Bw", "conj_Z", {})], False, 0.0),
                           "csv")
        assert text == (",".join(_CSV_COLUMNS) + "\n"
                        "Bw,3,2,vacuous,2,1,False,,,0,0,0,,,1\n")
