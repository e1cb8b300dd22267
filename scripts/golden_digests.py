"""Digest the golden outputs of a source tree, or compare two digest lists.

    python scripts/golden_digests.py write TREE LIST
    python scripts/golden_digests.py compare OLD_LIST NEW_LIST

``write`` imports ``qptsim`` from ``TREE/src`` and runs ``qptsim pipeline``
in process on every bundled preset, on fig3 and fig4 with ``--seed`` 1..30,
and on every fig3 variant of ``VARIANTS``, each into its own temporary
directory.  It writes one line per output file to LIST,
``<sha256>  <run>/<file>``, sorted by name.  ``compare`` prints every name
whose digest differs or that only one list holds, then a count, and exits 1
if any differ.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

SEEDS = range(1, 31)

_IDENTITY = {"type": "identity"}
_DAMPED = {"type": "amplitude_damping", "gamma": 1.0}

# fig3 variants, by label: each row's overrides, where a dotted key sets a field inside a
# section; CI writes the same configs and runs each one twice
VARIANTS = {
    # lossy: eta 0.42 draws every row, eta 0.1 jumps the outcome row, eta 0.05 jumps two
    "lossy": {"plan.eta": 0.42},
    "outcome_jumped": {"plan.eta": 0.1},
    "jumped": {"plan.eta": 0.05},
    "odd_total": {"plan.total": 8001},  # an odd number of lines
    "phi_plus": {"input_state": {"bell": 0}, "device": _IDENTITY},  # |01>, |10> empty
    "state_only": {"estimator": "state_only"},
    # state_only through the identity, one probe per reference pair
    "ref_01": {"input_state": {"bell": 1}, "device": _IDENTITY, "estimator": "state_only"},
    "ref_10": {"input_state": {"coeffs": [[[0.8, 0], [0, 0]], [[0.6, 0], [0, 0]]]},
               "device": _IDENTITY, "estimator": "state_only"},
    "ref_11": {"input_state": {"bell": 0}, "device": _IDENTITY, "estimator": "state_only"},
    "ref_00": {"input_state": {"coeffs": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
               "device": _IDENTITY, "estimator": "state_only"},
    "choi_sampled": {"estimator": "choi"},
    # a half-wave plate: det U = -1, on the branch cut of the determinant gauge
    "hwp": {"device.plates": [{"phi_over_pi": 1.0, "theta_over_pi": 0.1}]},
    # full amplitude damping under the unitary estimator; exact, det U = 0 and U is left unrotated
    "damped_unitary": {"device": _DAMPED},
    "damped_unitary_exact": {"device": _DAMPED, "plan": {"exact": True}},
    # the most resamples a bootstrap takes, under each estimator
    "resamples_unitary": {"bootstrap.resamples": 100000},
    "resamples_choi": {"estimator": "choi", "bootstrap.resamples": 100000},
    "resamples_state_only": {"estimator": "state_only", "bootstrap.resamples": 100000},
}


def variant(fig3: dict, label: str, overrides: dict) -> dict:
    """The fig3 config ``fig3`` labelled ``label``, with ``overrides``; its outputs
    are dropped, so they default to the label's names, unless a row sets them."""
    doc = copy.deepcopy(fig3)
    doc["label"] = label
    for key, value in overrides.items():
        *sections, field = key.split(".")
        target = doc
        for section in sections:
            target = target[section]
        target[field] = value
    if "outputs" not in overrides:
        del doc["outputs"]
    return doc


def runs(presets, fig3: dict, config_dir: str):
    """(run name, CLI arguments) of every run in a digest list; each variant's
    config is written to ``config_dir``."""
    for p in presets:
        yield p, ["--preset", p]
    for p in ("fig3", "fig4"):
        for s in SEEDS:
            yield f"{p}-seed{s:02d}", ["--preset", p, "--seed", str(s)]
    for label, overrides in VARIANTS.items():
        path = Path(config_dir, f"{label}.json")
        path.write_text(json.dumps(variant(fig3, label, overrides)))
        yield label, ["--config", str(path)]


def write(tree: str, out: str) -> None:
    sys.path.insert(0, str(Path(tree, "src").resolve()))
    from qptsim.cli import main
    from qptsim.pipeline import PRESETS

    fig3 = json.loads(Path(tree, "src", "qptsim", "presets", "fig3.json").read_text())
    lines = []
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null:
        for name, args in runs(PRESETS, fig3, tmp):
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
