"""The shipped configs' artifacts keep their bytes.

`tools/artifact_hashes.py` runs `sweep`, `alphabet --mask Z` and
`calibrate --db 2.2` on both shipped configs at seeds 12345, 7 and 99, each
in a fresh process, and hashes what each run writes. `artifact_hashes.md`
next to this file pins every row, each the same on every CPU path; this
test reruns the same runner and names every pinned row that moved.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("artifact_hashes.md")


def _tool():
    spec = importlib.util.spec_from_file_location(
        "artifact_hashes", ROOT / "tools" / "artifact_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _by_run_and_file(rows):
    """{row without its hash: hash} of markdown table rows."""
    return dict(row.rstrip(" |").rsplit(" | ", 1) for row in rows)


def test_pinned_artifacts_keep_their_bytes():
    tool = _tool()
    lines = PINNED.read_text(encoding="utf-8").splitlines()
    pinned = _by_run_and_file(line for line in lines
                              if line.startswith("| ") and line not in tool.HEADER)
    assert pinned, "%s pins no rows" % PINNED.name
    got = _by_run_and_file(tool.table_rows())
    moved = ["%s | pinned %s, got %s" % (key, digest, got.get(key, "no such row"))
             for key, digest in pinned.items() if got.get(key) != digest]
    assert not moved, "artifact bytes moved:\n" + "\n".join(moved)
