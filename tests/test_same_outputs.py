"""The report `tools/same_outputs.py` prints from the records of two trees."""

import sys
from pathlib import Path

from fpselect import glm

_TOOLS = str(Path(__file__).resolve().parent.parent / "tools")
sys.path.insert(0, _TOOLS)  # same_outputs imports ab_pairs from beside it
try:
    import same_outputs
finally:
    sys.path.remove(_TOOLS)

KEYS = list(glm.WORK)


def _record(index, fingerprint, work=None, problems=()):
    """A child's record of dataset `index` of seed 1; `work` maps each key of
    `glm.WORK` to the work done, or is None for a tree without the counter."""
    return {"seed": 1, "index": index, "fingerprint": fingerprint, "problems": list(problems),
            "work": work}


def _counted(*values):
    """Work records whose every count is the value given for that record."""
    return [dict.fromkeys(KEYS, value) for value in values]


def _report(capsys, base, change):
    bad = same_outputs.report("mfp_gauss", "HEAD", ".", [1], {"base": base, "change": change})
    return bad, capsys.readouterr().out.splitlines()


def _table(lines):
    """The rows of the count table, by label."""
    start = next(i for i, line in enumerate(lines) if line.startswith("per analysis")) + 1
    return {line[:20].strip(): line[20:].split() for line in lines[start:]}


class TestReport:

    def test_identical_fingerprints(self, capsys):
        work = _counted(2, 4)
        records = [_record(i, f"f{i}", w) for i, w in enumerate(work)]
        bad, lines = _report(capsys, records, [dict(r) for r in records])
        assert bad == 0
        assert "2 of 2 outputs identical" in lines
        assert not [line for line in lines if "differ" in line]

    def test_differing_fingerprints(self, capsys):
        work = _counted(2, 4)
        base = [_record(i, f"f{i}", w) for i, w in enumerate(work)]
        change = [_record(0, "f0", work[0]), _record(1, "other", work[1])]
        bad, lines = _report(capsys, base, change)
        assert bad == 1
        assert "seed 1 dataset 1: outputs differ" in lines
        assert "1 of 2 outputs identical" in lines

    def test_problems_count(self, capsys):
        base = [_record(0, "f0", _counted(1)[0], ["analysis raised; the reference has an output"])]
        bad, lines = _report(capsys, base, [_record(0, "f0", _counted(1)[0])])
        assert bad == 1
        assert "base seed 1 dataset 0: analysis raised; the reference has an output" in lines

    def test_count_table_has_a_row_per_work_count(self, capsys):
        base = [_record(i, f"f{i}", w) for i, w in enumerate(_counted(2, 4))]
        change = [_record(i, f"f{i}", w) for i, w in enumerate(_counted(1, 3))]
        _, lines = _report(capsys, base, change)
        table = _table(lines)
        assert list(table) == KEYS == ["designs factorised", "models fitted", "IRLS runs",
                                       "IRLS iterations", "in elimination", "bound steps"]
        for cells in table.values():  # mean and 99th percentile of each side
            assert cells == ["3.00", "4.0", "2.00", "3.0"]

    def test_a_tree_without_the_counter_has_its_counts_absent(self, capsys):
        base = [_record(i, f"f{i}") for i in range(2)]
        change = [_record(i, f"f{i}", w) for i, w in enumerate(_counted(2, 4))]
        bad, lines = _report(capsys, base, change)
        assert bad == 0
        assert "2 of 2 outputs identical" in lines
        table = _table(lines)
        assert list(table) == KEYS
        assert all(cells == ["absent", "3.00", "4.0"] for cells in table.values())
