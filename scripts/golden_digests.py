"""Digest the golden outputs of a source tree, or compare two digest lists.

    python scripts/golden_digests.py write TREE LIST
    python scripts/golden_digests.py compare OLD_LIST NEW_LIST

``write`` imports ``qptsim`` from ``TREE/src`` and runs ``qptsim pipeline``
in process on every bundled preset, and on fig3 and fig4 with ``--seed``
1..30, each into its own temporary directory.  It writes one line per output
file to LIST, ``<sha256>  <run>/<file>``, sorted by name.  ``compare`` prints
every name whose digest differs or that only one list holds, then a count,
and exits 1 if any differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

SEEDS = range(1, 31)


def runs(presets):
    """(run name, CLI arguments) of every run in a digest list."""
    for p in presets:
        yield p, ["--preset", p]
    for p in ("fig3", "fig4"):
        for s in SEEDS:
            yield f"{p}-seed{s:02d}", ["--preset", p, "--seed", str(s)]


def write(tree: str, out: str) -> None:
    sys.path.insert(0, str(Path(tree, "src").resolve()))
    from qptsim.cli import main
    from qptsim.pipeline import PRESETS

    lines = []
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null:
        for name, args in runs(PRESETS):
            run_dir = Path(tmp, name)
            with contextlib.redirect_stdout(null):
                code = main(["pipeline", *args, "--out", str(run_dir)])
            if code != 0:
                sys.exit(f"qptsim pipeline {' '.join(args)} exited {code}")
            for f in sorted(run_dir.iterdir()):
                lines.append(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {name}/{f.name}\n")
    Path(out).write_text("".join(sorted(lines, key=lambda line: line.split()[1])))


def read(path: str) -> dict:
    return {name: digest for digest, name in map(str.split, Path(path).read_text().splitlines())}


def compare(old_path: str, new_path: str) -> int:
    old, new = read(old_path), read(new_path)
    changed = sorted(n for n in old.keys() | new.keys() if old.get(n) != new.get(n))
    for n in changed:
        print(f"{n}: {old.get(n, 'absent')[:8]} -> {new.get(n, 'absent')[:8]}")
    print(f"{len(changed)} of {len(old.keys() | new.keys())} files differ")
    return 1 if changed else 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("write", "compare"):
        sys.exit(__doc__)
    if sys.argv[1] == "write":
        write(sys.argv[2], sys.argv[3])
    else:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
