"""Golden outputs: every run of `tools/output_digest.py`'s corpus gives the
field hashes committed in `tests/data/outputs.txt`.

The fields are the verdict, the reduced problem's `stable_hash`, the
postsolve record's entries, the stats and the verbosity-4 log.  A change
that moves outputs on purpose regenerates the file in the same commit,

    python tools/output_digest.py --each > tests/data/outputs.txt

and the file's diff lists the runs it moved."""
import hashlib
import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "outputs.txt")


def _digest_tool():
    spec = importlib.util.spec_from_file_location(
        "output_digest", os.path.join(ROOT, "tools", "output_digest.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _fields(line: str) -> dict:
    """{field: short hash} of a run's line."""
    return dict(item.split(":", 1) for item in line.split()[1:])


def _differences(golden: list, computed: list) -> list:
    """The runs whose lines differ, each named with its fields that
    differ, then the runs only one side has."""
    expected = {line.split()[0]: line for line in golden}
    found = {line.split()[0]: line for line in computed}
    moved = []
    for name, line in found.items():
        if name in expected and expected[name] != line:
            want, got = _fields(expected[name]), _fields(line)
            moved.append(f"{name}: " + ", ".join(
                field for field in want if want[field] != got.get(field)))
    missing = [f"{name}: not computed" for name in expected
               if name not in found]
    extra = [f"{name}: not in the file" for name in found
             if name not in expected]
    return moved + missing + extra


def test_outputs_match_the_golden_file(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _digest_tool()
    with open(GOLDEN, encoding="utf-8") as fh:
        *golden, total_line = fh.read().splitlines()
    computed = []
    total = hashlib.sha256()
    for name, parts in tool.digest_lines(os.path.join(ROOT, "src")):
        computed.append(tool.each_line(name, parts))
        total.update(tool.run_hash(name, parts).encode())
    diffs = _differences(golden, computed)
    assert not diffs, (
        f"{len(diffs)} runs differ from tests/data/outputs.txt; the first "
        "ones and the fields that moved:\n" + "\n".join(diffs[:10]))
    assert computed == golden, "the runs are in another order"
    assert total_line == f"{total.hexdigest()} over {len(computed)} runs"


def test_differences_name_the_run_and_its_fields():
    golden = ["a verdict:1 hash:2 log:3", "b verdict:1 hash:2 log:3",
              "c verdict:1 hash:2 log:3"]
    computed = ["a verdict:1 hash:2 log:3", "b verdict:1 hash:9 log:8",
                "d verdict:1 hash:2 log:3"]
    assert _differences(golden, computed) == [
        "b: hash, log", "c: not computed", "d: not in the file"]
    assert _differences(golden, golden) == []
