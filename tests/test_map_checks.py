"""The whole-map load checks against the per-row rules they replace.

Each case takes a real map's rows, applies seeded single-row edits to the
decoded tuples (drop, append, insert or replace an entry; for quotient
rows also a wrong ending or a zero sum; a row moved to another place; an
entry that is not an int), writes the edited rows to a map file through
catalog._write_cache and reads it back with catalog._read_cache and the
map's own ClassMap.check.  The read must succeed, with the edited rows,
exactly when every entry is an int and every row passes
oracles.reference_map_row_rule; otherwise its FormatError names the type
rule, or the rule the rows break.
"""

import random

import pytest
from oracles import reference_map_row_rule

from indsub import catalog
from indsub.catalog import CLASS_MAPS, build_catalog
from indsub.errors import FormatError

MAPS = {kind.suffix: kind for kind in CLASS_MAPS}
CASES = [(suffix, 5) for suffix in sorted(MAPS)] + [("edges", 6),
                                                     ("quotients", 6)]
EDITS_PER_KIND = 40
NOT_INTS = ("x", 1.5, None, True, b"1", (1,))


def _value(rng, entries, top):
    """An entry next to a valid one: an entry of the map moved by at most
    one, or one of -1, 0, top - 1 and top."""
    if rng.randrange(4):
        return rng.choice(entries) + rng.randrange(-1, 2)
    return rng.choice((-1, 0, top - 1, top))


def _edits(rng, rows, suffix, top):
    """(kind of edit, edited rows) for seeded single-row edits of rows,
    each row a list of entries.  Half the edits fall on the first or the
    last row that has entries."""
    entries = [x for row in rows for x in row]
    filled = [i for i, row in enumerate(rows) if row]
    kinds = ["drop", "append", "insert", "replace", "move", "not an int"]
    if suffix == "quotients":
        kinds += ["wrong ending", "zero sum"]
    for kind in kinds:
        for _ in range(EDITS_PER_KIND):
            new = [list(row) for row in rows]
            i = rng.choice((filled[0], filled[-1], rng.choice(filled),
                            rng.choice(filled)))
            row = new[i]
            t = rng.randrange(len(row))
            if kind == "drop":
                del row[t]
            elif kind == "append":
                row.append(_value(rng, entries, top))
            elif kind == "insert":
                row.insert(t, _value(rng, entries, top))
            elif kind == "replace":
                row[t] = _value(rng, entries, top)
            elif kind == "move":
                j = rng.choice([j for j in range(len(rows)) if j != i])
                new.insert(j, new.pop(i))
            elif kind == "not an int":
                row[t] = rng.choice(NOT_INTS)
            elif kind == "wrong ending":
                row[rng.choice((-2, -1))] = _value(rng, entries, top)
            else:
                row[rng.randrange(1, len(row), 2)] = 0
            yield kind, tuple(map(tuple, new))


def _expected(rows, rule):
    """The rows the read must return, or the text its FormatError must
    hold."""
    if any(type(x) is not int for row in rows for x in row):
        return f"not {len(rows)} rows of ints"
    if all(rule(i, row) for i, row in enumerate(rows)):
        return rows
    return "rows break the rule: "


@pytest.mark.parametrize("suffix, k", CASES)
def test_whole_map_check_matches_row_rules(suffix, k, tmp_path):
    kind = MAPS[suffix]
    good = kind(k)
    cats = tuple(build_catalog(m) for m in range(kind.lowest(k), k + 1))
    inputs = catalog._map_inputs(cats, catalog.default_cache_dir())
    check = kind.check(cats)
    rule = reference_map_row_rule(suffix, cats)
    top = sum(c.class_count for c in cats) if suffix == "quotients" \
        else cats[0].class_count
    edited = tmp_path / f"k{k}.{suffix}"
    outcomes = {}
    rng = random.Random(f"{suffix}-{k}")
    for edit, rows in _edits(rng, good, suffix, top):
        catalog._write_cache(rows, edited, inputs)
        want = _expected(rows, rule)
        try:
            got = catalog._checked_rows(catalog._read_cache(edited, inputs),
                                        len(good), check)
        except FormatError as exc:
            assert isinstance(want, str), (edit, rows)
            assert want in str(exc), (edit, str(exc))
        else:
            assert got == want, (edit, rows)
        outcomes.setdefault(edit, set()).add(isinstance(want, tuple))
    # The edits reach both sides of the check: some maps pass, some fail.
    assert set().union(*outcomes.values()) == {True, False}
    assert outcomes["not an int"] == outcomes["append"] == {False}
