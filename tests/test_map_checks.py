"""The whole-map load checks against the per-row rules they replace.

Each case takes a real map file, applies seeded single-row edits to it
(drop, append, insert or replace an entry; for quotient rows also a
wrong ending or a zero sum; a row moved to another line; a token that
int() rejects) and reads the edited file with catalog._read_map and the
map's own ClassMap.check.  The read must succeed, with the parsed rows, exactly when
every token is an int and every row passes oracles.reference_map_row_rule;
otherwise its FormatError names the first bad row, or the rule the rows
break.
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
BAD_TOKENS = ("x", "1.5", "--1", "0x1", "1e3", "2,")


def _value(rng, tokens, top):
    """An entry next to a valid one: a token of the map moved by at most
    one, or one of -1, 0, top - 1 and top."""
    if rng.randrange(4):
        return str(int(rng.choice(tokens)) + rng.randrange(-1, 2))
    return str(rng.choice((-1, 0, top - 1, top)))


def _edits(rng, rows, suffix, top):
    """(kind of edit, edited rows) for seeded single-row edits of rows,
    each row a list of token texts.  Half the edits fall on the first or
    the last row that has entries."""
    tokens = [tok for row in rows for tok in row]
    filled = [i for i, row in enumerate(rows) if row]
    kinds = ["drop", "append", "insert", "replace", "move", "bad token"]
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
                row.append(_value(rng, tokens, top))
            elif kind == "insert":
                row.insert(t, _value(rng, tokens, top))
            elif kind == "replace":
                row[t] = _value(rng, tokens, top)
            elif kind == "move":
                j = rng.choice([j for j in range(len(rows)) if j != i])
                new.insert(j, new.pop(i))
            elif kind == "bad token":
                row[t] = rng.choice(BAD_TOKENS)
            elif kind == "wrong ending":
                row[rng.choice((-2, -1))] = _value(rng, tokens, top)
            else:
                row[rng.randrange(1, len(row), 2)] = "0"
            yield kind, new


def _expected(lines, rule):
    """The rows the read must return, or the text its FormatError must
    hold."""
    rows = []
    for i, line in enumerate(lines):
        try:
            rows.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            return f"bad row {i}: "
    if all(rule(i, row) for i, row in enumerate(rows)):
        return tuple(rows)
    return "rows break the rule: "


@pytest.mark.parametrize("suffix, k", CASES)
def test_whole_map_check_matches_row_rules(suffix, k, tmp_path):
    kind = MAPS[suffix]
    kind(k)
    path = catalog.default_cache_dir() / f"k{k}.{suffix}"
    head, *lines = path.read_text().split("\n")[:-1]
    cats = tuple(build_catalog(m) for m in range(kind.lowest(k), k + 1))
    check = kind.check(cats)
    rule = reference_map_row_rule(suffix, cats)
    top = sum(c.class_count for c in cats) if suffix == "quotients" \
        else cats[0].class_count
    edited = tmp_path / path.name
    outcomes = {}
    rng = random.Random(f"{suffix}-{k}")
    for edit, rows in _edits(rng, [line.split() for line in lines],
                             suffix, top):
        new_lines = [" ".join(row) for row in rows]
        edited.write_text("\n".join([head, *new_lines, ""]))
        want = _expected(new_lines, rule)
        try:
            got = catalog._read_map(edited, head, len(lines), check)
        except FormatError as exc:
            assert isinstance(want, str), (edit, new_lines)
            assert f"{edited}: {want}" in str(exc), (edit, str(exc))
        else:
            assert got == want, (edit, new_lines)
        outcomes.setdefault(edit, set()).add(isinstance(want, tuple))
    # The edits reach both sides of the check: some maps pass, some fail.
    assert set().union(*outcomes.values()) == {True, False}
    assert outcomes["bad token"] == outcomes["append"] == {False}
