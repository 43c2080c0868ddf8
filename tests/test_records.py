"""The records of src/indsub are NamedTuples or graphs.Frozen subclasses.
They keep what frozen dataclasses gave: no attribute can be assigned or
deleted, and equality and the hash are those of the field tuple, so dict
and set orders do not depend on the class form."""

import inspect

import pytest

from indsub import canon, catalog, graphs, hardness, hereditary, hombasis
from indsub import homcount, properties, spectrum
from indsub.graphs import Frozen, HostGraph, SmallGraph
from indsub.properties import get_property

C4 = SmallGraph.cycle(4)
P4 = SmallGraph.path(4)


def _report():
    return hardness.diagnose(get_property("triangle-free"), 4)


# One instance of every public record class, built through the public API
# where it has a builder.
RECORDS = {
    "CanonicalForm": lambda: canon.canonical_form(P4),
    "GraphCatalog": lambda: catalog.build_catalog(4),
    "ClassMap": lambda: catalog.edge_deletions,
    "SmallGraph": lambda: C4,
    "HostGraph": lambda: HostGraph.from_small(C4),
    "TuranCheck": lambda: _report().records[-1].turan,
    "HardnessRecord": lambda: _report().records[-1],
    "HardnessReport": _report,
    "ExplosionSpec": lambda: hereditary.ExplosionSpec(C4, 0, 1, 2, 1),
    "TwinPartition": lambda: hereditary.twin_partition(C4),
    "CriticalEdgeCertificate": lambda: hereditary.singleton_critical_edge(P4),
    "CriticalCheckResult": lambda: hereditary.bounded_critical_check(
        get_property("triangle-free"), SmallGraph.complete(3), (0, 1),
        bound=1),
    "ReductionInstance": lambda: hereditary.build_reduction_instance(
        HostGraph.from_edges(2, [(0, 1)]), ((0,), (1,)), P4, (1, 2)),
    "HomVector": lambda: hombasis.hom_vector(get_property("connected"), 3),
    "TreeDecomposition": lambda: homcount.tree_decomposition(C4),
    "PropertySpec": lambda: get_property("connected"),
    "FlagViolation": lambda: properties.FlagViolation("monotone", "A_", "x"),
    "FPolynomial": lambda: spectrum.FPolynomial.from_f_vector((1, 2, 1)),
    "BirkhoffMatrix": lambda: spectrum.BirkhoffMatrix(((1, 0), (0, 1))),
    "Spectrum": lambda: spectrum.spectrum_report(get_property("connected"), 4),
}


def test_every_public_record_is_listed():
    modules = (canon, catalog, graphs, hardness, hereditary, hombasis,
               homcount, properties, spectrum)
    found = {name for module in modules
             for name, cls in vars(module).items()
             if inspect.isclass(cls) and cls.__module__ == module.__name__
             and not name.startswith("_") and cls is not Frozen
             and (issubclass(cls, Frozen) or hasattr(cls, "_fields"))}
    assert found == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_equal_and_hash_as_their_field_tuples(name):
    record = RECORDS[name]()
    values = tuple(getattr(record, f) for f in record._fields)
    assert hash(record) == hash(values)
    # tuple.__new__ builds the NamedTuples without running a subclass's
    # __new__, which for ClassMap would register a second map
    copy = (type(record)(*values) if isinstance(record, Frozen)
            else tuple.__new__(type(record), values))
    assert copy == record and hash(copy) == hash(record)
    assert copy is not record


@pytest.mark.parametrize("n, edges", [(0, 0), (3, 5), (4, 0b101101),
                                      (16, (1 << 120) - 1)])
def test_small_graph_hashes_as_n_and_edges(n, edges):
    assert hash(SmallGraph(n, edges)) == hash((n, edges))
    assert SmallGraph(n, edges)._fields == ("n", "edges")


def test_frozen_records_equal_only_their_own_class():
    cat = catalog.build_catalog(3)
    assert cat == catalog.GraphCatalog(3, cat.edges, cat.auts, cat.graph6)
    assert cat != (3, cat.edges, cat.auts, cat.graph6)
    assert cat != catalog.GraphCatalog(3, cat.edges, cat.auts[:-1] + (1,),
                                       cat.graph6)


# namedtuple's _replace builds through _make, which skips a subclass's
# __new__ unless the subclass overrides it.
@pytest.mark.parametrize("record, change", [
    (C4, {"n": 20}),
    (hereditary.ExplosionSpec(C4, 0, 1, 2, 1), {"u": 1}),
    (spectrum.BirkhoffMatrix(((1, 0), (0, 1))), {"rows": ((2,),)}),
])
def test_replace_runs_the_checks(record, change):
    assert record._replace() == record
    with pytest.raises(ValueError):
        record._replace(**change)
